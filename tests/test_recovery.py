import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from bilinlab import recovery
from bilinlab.signals import complex_normals


def _gaussian(m, n, rng):
    return (rng.standard_normal((m, n))
            + 1j * rng.standard_normal((m, n))) / np.sqrt(2 * m)


def _planted(m, n, s, rng):
    a = _gaussian(m, n, rng)
    u0 = np.zeros(n, dtype=complex)
    support = rng.choice(n, size=s, replace=False)
    u0[support] = rng.standard_normal(s) + 1j * rng.standard_normal(s)
    return a, u0, a @ u0


def test_soft_threshold():
    v = np.array([3.0, -0.5, 2j, 0.0])
    out = recovery.soft_threshold(v, 1.0)
    assert np.allclose(out, [2.0, 0.0, 1j, 0.0])
    # phase preserved for complex entries
    z = np.array([2.0 * np.exp(0.7j)])
    assert np.allclose(recovery.soft_threshold(z, 0.5),
                       1.5 * np.exp(0.7j))


def test_zero_data_shortcut():
    rng = np.random.default_rng(0)
    a = _gaussian(6, 12, rng)
    res = recovery.bpdn_synthesis(a, np.zeros(6), eps=0.0)
    assert np.array_equal(res.solution, np.zeros(12))
    assert res.converged


def test_planted_recovery_noiseless():
    rng = np.random.default_rng(1)
    a, u0, b = _planted(40, 100, 3, rng)
    res = recovery.bpdn_synthesis(a, b, eps=0.0)
    assert res.converged
    assert np.linalg.norm(res.solution - u0) <= 1e-3 * np.linalg.norm(u0)


@pytest.mark.parametrize("m", [8, 16, 24])
def test_objective_monotone_along_continuation(m):
    # Steps at one penalty never raise the objective, and each stage
    # restarts from the last point at a 4x smaller penalty, which lowers
    # the objective there too: the reference's whole history is
    # nonincreasing, and the stack matches the reference bit for bit.
    a, b = _planted_stack(4, m, 50, 3, 0.0, m)
    histories = []
    stacked = _assert_matches_reference(a, b, 0.0, histories=histories)
    for res, history in zip(stacked, histories):
        hist = np.asarray(history)
        assert len(hist) > res.iterations + 1  # stages
        assert np.all(np.diff(hist) <= 1e-12 * np.maximum(1.0, hist[:-1]))


def test_noisy_recovery_feasible():
    rng = np.random.default_rng(3)
    a, u0, b = _planted(30, 60, 3, rng)
    e = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    eps = 0.05 * np.linalg.norm(b)
    b_noisy = b + e * (0.5 * eps / np.linalg.norm(e))
    res = recovery.bpdn_synthesis(a, b_noisy, eps=eps)
    assert res.converged
    assert res.residual_norm <= eps * (1 + 1e-6)
    # the constrained optimum saturates the residual budget; a crude
    # least-squares point would have residual far below eps
    assert res.residual_norm >= 0.5 * eps


def test_negative_eps_rejected():
    rng = np.random.default_rng(4)
    a = _gaussian(5, 10, rng)
    for eps in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite nonnegative"):
            recovery.bpdn_synthesis(a, np.ones(5), eps=eps)


# The per-problem solver, kept as the reference that bpdn_synthesis_stack
# must match bit for bit: monotone FISTA with restart at each fixed penalty
# (Beck & Teboulle 2009), inside the same continuation, whose stages a
# duality-gap bound may end, and the same Illinois regula falsi on the
# penalty.  It takes the step budget and the tolerance as arguments.

def _reference_soft_threshold(v, tau):
    mag = np.abs(v)
    scale = np.maximum(mag - tau, 0.0) / np.where(mag > 0, mag, 1.0)
    return v * scale


def _reference_mfista(a, b, u0, lam, lipschitz, max_iters, tol, history,
                      rejected, cut=None):
    """One stage; with ``cut`` it also ends once the gap bound puts the
    stage minimizer's residual above ``cut``, and says so."""
    u = u0
    ru = a @ u - b
    fu = float(lam * np.sum(np.abs(u)) + 0.5 * np.vdot(ru, ru).real)
    history.append(fu)
    step = a.conj().T / lipschitz
    y, ry, t = u, ru, 1.0
    used = 0
    certified = False
    for _ in range(max_iters):
        used += 1
        grad = step @ ry
        z = _reference_soft_threshold(y - grad, lam / lipschitz)
        rz = a @ z - b
        fz = lam * np.sum(np.abs(z)) + 0.5 * np.vdot(rz, rz).real
        change = np.vdot(z - y, z - y).real
        stop = change < tol ** 2 * max(1.0, np.vdot(z, z).real)
        if cut is not None:
            # theta = c r_y is dual feasible: |A^H theta| <= lam entrywise.
            largest = float(np.max(np.abs(grad)))
            scale = 1.0 if largest == 0 else min(1.0,
                                                 lam / lipschitz / largest)
            theta_norm = scale * math.sqrt(np.vdot(ry, ry).real)
            dual_value = (-0.5 * theta_norm ** 2
                          - scale * np.vdot(ry, b).real)
        if fz <= fu:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            # r_y = A y - b follows from the residuals by linearity
            y = z + beta * (z - u)
            ry = rz + beta * (rz - ru)
            u, ru, fu, t = z, rz, float(fz), t_next
        else:
            rejected.append(used)
            y, ry, t = u, ru, 1.0
        history.append(fu)
        if cut is not None:
            gap = max(fu - dual_value, 0.0)
            certified = theta_norm - math.sqrt(2.0 * gap) > cut
        if stop or certified:
            break
    return u, ru, used, certified


def _reference_bpdn_synthesis(amat, b, eps, max_iterations, tolerance,
                              rejected, trace=None, history=None):
    """``trace`` (a list) receives one tag per stage: "certified" or
    "solved" for a continuation stage, "secant" or "midpoint" for a
    penalty search stage, "halved" after an Illinois halving.  ``history``
    (a list) receives the objective at each stage start and after each
    step."""
    m, n = amat.shape
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return recovery.SolverResult(np.zeros(n, dtype=complex), True, 0.0, 0)
    if trace is None:
        trace = []
    if history is None:
        history = []
    lipschitz = np.linalg.norm(amat, 2) ** 2
    lam_max = np.max(np.abs(amat.conj().T @ b))
    u = np.zeros(n, dtype=complex)
    total_iters = 0
    lam = 0.5 * lam_max
    lam_floor = recovery.PENALTY_FLOOR_REL * lam_max
    stage_iters = max(50, max_iterations // 20)
    cut = eps * (1 + recovery.CERTIFICATE_MARGIN) if eps > 0 else None

    def log_ratio(res):
        return math.log(res / eps) if res > 0 else None

    solved = {}  # penalty -> log(||r|| / eps) of each continuation stage
    feasible = False  # a continuation stage ended with ||r|| <= eps
    while True:
        u, r, used, certified = _reference_mfista(
            amat, b, u, lam, lipschitz, stage_iters, tolerance, history,
            rejected, cut)
        total_iters += used
        trace.append("certified" if certified else "solved")
        if not certified:
            res = np.linalg.norm(r)
            if eps > 0 and res <= eps:
                feasible = True
                break
            if eps > 0:
                solved[lam] = log_ratio(res)
        if lam <= lam_floor or total_iters >= max_iterations:
            break
        lam = max(lam * 0.25, lam_floor)
    if feasible:
        # bracket[0] is the feasible end, bracket[1] the infeasible one, as
        # [penalty, log(||r|| / eps) or None].
        bracket = [[lam, log_ratio(res)], [lam * 4.0, solved.get(lam * 4.0)]]
        moved = None
        for _ in range(30):
            if total_iters >= max_iterations:
                break
            (lo, f_lo), (hi, f_hi) = bracket
            trial = 0.5 * (lo + hi)
            tag = "midpoint"
            if f_lo is not None and f_hi is not None:
                x_lo, x_hi = math.log(lo), math.log(hi)
                secant = math.exp(x_lo + (x_hi - x_lo) * f_lo / (f_lo - f_hi))
                if lo < secant < hi:
                    trial, tag = secant, "secant"
            trace.append(tag)
            u_t, r_t, used, _ = _reference_mfista(
                amat, b, u, trial, lipschitz, stage_iters, tolerance,
                history, rejected)
            total_iters += used
            res = np.linalg.norm(r_t)
            side = 0 if res <= eps else 1
            if moved == side and bracket[1 - side][1] is not None:
                bracket[1 - side][1] /= 2  # Illinois
                trace.append("halved")
            bracket[side] = [trial, log_ratio(res)]
            moved = side
            if side == 0:
                u = u_t
            if (bracket[1][0] - bracket[0][0]) / bracket[1][0] < 1e-3:
                break
    if eps == 0.0:
        support = np.flatnonzero(np.abs(u) > 1e-6 * np.max(np.abs(u), initial=0))
        if 0 < support.size <= m:
            sub, *_ = np.linalg.lstsq(amat[:, support], b, rcond=None)
            u_db = np.zeros(n, dtype=complex)
            u_db[support] = sub
            r_db = amat @ u_db - b
            if np.linalg.norm(r_db) <= np.linalg.norm(amat @ u - b):
                u, r = u_db, r_db
    res = float(np.linalg.norm(amat @ u - b))
    feasible = res <= eps * (1 + 1e-6) + 1e-8 * bnorm
    return recovery.SolverResult(u, bool(feasible), res, total_iters)


def _planted_stack(t, m, n, s, noise, seed):
    rng = np.random.default_rng(seed)
    a = np.empty((t, m, n), dtype=complex)
    b = np.empty((t, m), dtype=complex)
    for i in range(t):
        a[i], _, b[i] = _planted(m, n, s, rng)
        if noise:
            e = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            b[i] += e * (noise / np.linalg.norm(e))
    return a, b


def _assert_matches_reference(a, b, eps, rejected=None, traces=None,
                              histories=None):
    """Compare each row with the reference at the module's step budget and
    tolerance; ``rejected`` (a list) receives each row's list of rejected
    steps, ``traces`` each row's stage tags and ``histories`` each row's
    reference objective history."""
    stacked = recovery.bpdn_synthesis_stack(a, b, eps)
    assert len(stacked) == len(a)
    for ai, bi, got in zip(a, b, stacked):
        row_rejected, row_trace, row_history = [], [], []
        want = _reference_bpdn_synthesis(ai, bi, eps, recovery.MAX_ITERATIONS,
                                         recovery.TOLERANCE, row_rejected,
                                         row_trace, row_history)
        for out, row in ((rejected, row_rejected), (traces, row_trace),
                         (histories, row_history)):
            if out is not None:
                out.append(row)
        assert np.array_equal(got.solution, want.solution)
        assert got.iterations == want.iterations
        assert type(got.iterations) is int
        assert got.converged == want.converged
        assert got.residual_norm == want.residual_norm
    return stacked


def _stages(trace):
    # one tag per stage, plus one per Illinois halving
    return sum(tag != "halved" for tag in trace)


@pytest.mark.parametrize("m,s,seed", [(8, 3, 0), (16, 3, 1), (24, 4, 2),
                                      (40, 3, 3)])
def test_stack_matches_reference_exact(m, s, seed):
    a, b = _planted_stack(6, m, 60, s, 0.0, seed)
    _assert_matches_reference(a, b, 0.0)


@pytest.mark.parametrize("m,noise,eps,seed", [
    (16, 1e-4, 1e-4, 4), (24, 0.05, 0.05, 5), (30, 0.01, 0.02, 6),
    (32, 1e-4, 1e-4, 13)])
def test_stack_matches_reference_noisy(m, noise, eps, seed):
    a, b = _planted_stack(6, m, 60, 3, noise, seed)
    traces = []
    _assert_matches_reference(a, b, eps, traces=traces)
    # the rows end their penalty searches at different rounds
    assert len({_stages(trace) for trace in traces}) > 1
    # every row ends a continuation stage on the gap bound and takes a
    # secant step, and some row halves an end's value
    assert all("certified" in trace and "secant" in trace
               for trace in traces)
    assert any("halved" in trace for trace in traces)


def test_stack_matches_reference_zero_row():
    a, b = _planted_stack(4, 12, 40, 2, 0.0, 8)
    b[1] = 0.0
    for eps in (0.0, 0.1):
        stacked = _assert_matches_reference(a, b, eps)
        assert np.array_equal(stacked[1].solution, np.zeros(40))
        assert stacked[1].iterations == 0
        assert all(res.iterations > 0 for i, res in enumerate(stacked)
                   if i != 1)


@pytest.mark.parametrize("max_iterations,eps", [(1, 0.0), (60, 0.0),
                                                (120, 0.01), (300, 1e-3)])
def test_stack_matches_reference_iteration_cap(monkeypatch, max_iterations,
                                               eps):
    monkeypatch.setattr(recovery, "MAX_ITERATIONS", max_iterations)
    a, b = _planted_stack(5, 16, 60, 3, eps / 2, 9)
    stacked = _assert_matches_reference(a, b, eps)
    assert any(res.iterations >= max_iterations for res in stacked)


def test_stack_matches_reference_single_row():
    a, b = _planted_stack(1, 20, 60, 3, 0.0, 10)
    _assert_matches_reference(a, b, 0.0)
    want = _reference_bpdn_synthesis(a[0], b[0], 0.0, recovery.MAX_ITERATIONS,
                                     recovery.TOLERANCE, [])
    got = recovery.bpdn_synthesis(a[0], b[0])
    assert np.array_equal(got.solution, want.solution)
    assert got.iterations == want.iterations


def test_stack_matches_reference_across_chunks(monkeypatch):
    monkeypatch.setattr(recovery, "STACK_ENTRIES", 3 * 16 * 50 + 1)
    assert recovery.stack_rows(16, 50) == 3
    a, b = _planted_stack(7, 16, 50, 3, 1e-3, 11)
    b[4] = 0.0
    _assert_matches_reference(a, b, 1e-3)


def test_stack_matches_reference_through_restarts():
    # Rows reject steps, and restart their momentum, at different steps;
    # a missing restart or a stale momentum in the stack shows here.
    a, b = _planted_stack(6, 16, 60, 3, 0.0, 1)
    rejected = []
    _assert_matches_reference(a, b, 0.0, rejected)
    assert len({tuple(steps) for steps in rejected}) > 1
    assert all(rejected)


def test_noisy_solve_unitary_oracle(monkeypatch):
    """With A the unitary DFT the minimizer of lam ||u||_1 + ||A u - b||^2 / 2
    is soft(A^H b, lam), whose residual norm is ||min(|A^H b|, lam)||.
    Every stage that the gap bound ends has that residual above eps, and
    the solve returns the minimizer at a feasible penalty within 1e-3
    relative of the root of ||r(lam)|| = eps."""
    n, eps = 64, 0.05
    a = np.fft.fft(np.eye(n)) / np.sqrt(n)
    rng = np.random.default_rng(14)
    u0 = np.zeros(n, dtype=complex)
    u0[rng.choice(n, size=4, replace=False)] = (
        rng.standard_normal(4) + 1j * rng.standard_normal(4))
    e = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = a @ u0 + e * (0.5 * eps / np.linalg.norm(e))
    v = a.conj().T @ b
    mags = np.sort(np.abs(v))

    def residual(lam):
        return np.linalg.norm(np.minimum(mags, lam))

    # Between consecutive magnitudes ||r||^2 = sum of the smaller ones
    # squared plus lam^2 times the count of the others.
    below = np.concatenate([[0.0], np.cumsum(mags ** 2)])
    k = np.flatnonzero(below[:n] + (n - np.arange(n)) * mags ** 2
                       >= eps ** 2)[0]
    root = math.sqrt((eps ** 2 - below[k]) / (n - k))
    assert residual(root) == pytest.approx(eps, rel=1e-12)

    stages = []
    schedule = recovery._schedule

    def logged(*args):
        gen = schedule(*args)
        sent = None
        while True:
            try:
                u, lam, probe = gen.send(sent)
            except StopIteration as stop:
                return stop.value
            sent = yield u, lam, probe
            stages.append((lam, probe, sent))

    monkeypatch.setattr(recovery, "_schedule", logged)
    res = recovery.bpdn_synthesis(a, b, eps)
    ended = [lam for lam, probe, (_, _, _, above) in stages if above]
    assert ended and all(residual(lam) > eps for lam in ended)
    assert all(probe for lam, probe, _ in stages if lam in ended)
    # the first stage that reached the returned point (a later stage may
    # keep it, when its first step does not lower the objective)
    lam = next(lam for lam, _, (u, _, _, _) in stages
               if np.array_equal(u, res.solution))
    assert res.converged and residual(lam) <= eps
    assert abs(lam - root) <= 1e-3 * root
    assert np.allclose(res.solution, recovery.soft_threshold(v, lam),
                       rtol=0, atol=1e-12 * np.linalg.norm(v))
    # Midpoints alone need 10 stages to narrow [lam, 4 lam] below 1e-3 of
    # its high end: 3 lam / 2^k < 4e-3 lam.
    searched = [lam for lam, probe, _ in stages if not probe]
    assert len(searched) < math.log2(3 / 4e-3)


@pytest.mark.parametrize("ended", [False, True])
def test_schedule_searches_from_the_midpoint_without_a_tight_high_end(
        ended):
    """Continuation runs at lam_max / 2, / 8, / 32.  The first stage runs
    to its end above eps and the last is feasible; when the gap bound ended
    the middle stage, the bracket's high end has no residual of a stage run
    to its end, so the search starts from the midpoint, not from a secant
    through the first stage's residual."""
    u = np.zeros(1, dtype=complex)
    gen = recovery._schedule(u, 8.0, 1.0, 10 ** 6)
    assert next(gen) == (u, 4.0, True)
    assert gen.send((u, np.array([3.0]), 10, False)) == (u, 1.0, True)
    assert gen.send((u, np.array([2.0]), 10, ended)) == (u, 0.25, True)
    _, lam, probe = gen.send((u, np.array([0.5]), 10, False))
    assert not probe
    if ended:
        assert lam == 0.5 * (0.25 + 1.0)
    else:
        x_lo, x_hi = math.log(0.25), math.log(1.0)
        f_lo, f_hi = math.log(0.5), math.log(2.0)
        assert lam == math.exp(x_lo + (x_hi - x_lo) * f_lo / (f_lo - f_hi))


def _recovered(results, u0):
    limit = recovery.TRIAL_TOLERANCE
    return [bool(np.linalg.norm(res.solution - u) <= limit * np.linalg.norm(u))
            for res, u in zip(results, u0)]


def test_default_solve_recovers_the_trials_a_long_solve_recovers(
        monkeypatch):
    """Near the l1 transition (m = 16, n = 100, s = 3) the default schedule
    recovers trial by trial what a long, tight solve recovers, so the
    recover-sweep rates measure l1 rather than the step budget."""
    rng = np.random.default_rng(2)
    a = np.empty((10, 16, 100), dtype=complex)
    u0 = np.empty((10, 100), dtype=complex)
    b = np.empty((10, 16), dtype=complex)
    for i in range(10):
        a[i], u0[i], b[i] = _planted(16, 100, 3, rng)
    default = _recovered(recovery.bpdn_synthesis_stack(a, b), u0)
    monkeypatch.setattr(recovery, "MAX_ITERATIONS", 40000)
    monkeypatch.setattr(recovery, "TOLERANCE", 1e-11)
    long = _recovered(recovery.bpdn_synthesis_stack(a, b), u0)
    assert default == long
    assert 0 < sum(long) < 10


def test_stack_rows_bound_the_stack_entries():
    assert recovery.stack_rows(64, 100) == recovery.STACK_ENTRIES // 6400
    assert recovery.stack_rows(64, 100) * 64 * 100 <= recovery.STACK_ENTRIES
    assert recovery.stack_rows(1000, 1000) == 1
    assert recovery.stack_rows(0, 5) == recovery.STACK_ENTRIES


def test_stack_rejects_bad_shapes():
    a, b = _planted_stack(2, 6, 10, 1, 0.0, 12)
    with pytest.raises(ValueError):
        recovery.bpdn_synthesis_stack(a[0], b[0])
    with pytest.raises(ValueError):
        recovery.bpdn_synthesis_stack(a, b[:, :5])
    with pytest.raises(ValueError):
        recovery.bpdn_synthesis_stack(a, b, eps=-1.0)


# The exact-data certificate (see the recovery module docstring).

def _decided(a, u0):
    """+1 where ``dual_certificate`` proves u0 the unique minimizer, -1
    where it proves u0 not a minimizer, 0 where it decides nothing."""
    upper, lower, *_ = recovery.dual_certificate(a, u0)
    margin = recovery.CERTIFICATE_MARGIN
    return np.where(upper < 1 - margin, 1, np.where(lower > 1 + margin, -1, 0))


def _witness(a, u0, z):
    """The certificate w = w_LS + N z of one row, rebuilt: w_LS the
    minimum-norm solution of A_S^H w = sgn(u0_S), N the last m - s left
    singular vectors of A_S."""
    support = np.flatnonzero(u0)
    a_s = a[:, support]
    sgn = u0[support] / np.abs(u0[support])
    w_ls = np.linalg.lstsq(a_s.conj().T, sgn, rcond=None)[0]
    return w_ls + np.linalg.svd(a_s)[0][:, support.size:] @ z


def test_dual_certificate_unitary_oracle():
    # A_S^H A_S = I, so w = A_S sgn(u0_S) and A^H w vanishes off S: the
    # least-squares round certifies every support.
    n = 6
    a = np.fft.fft(np.eye(n)) / np.sqrt(n)
    for s in (1, 2, 3, n):
        rows = list(itertools.combinations(range(n), s))
        u0 = np.zeros((len(rows), n), dtype=complex)
        for row, sup in zip(u0, rows):
            row[list(sup)] = np.exp(1j * np.arange(1, s + 1))
        upper, _, z, _ = recovery.dual_certificate(
            np.broadcast_to(a, (len(u0), n, n)), u0)
        assert np.all(upper <= 1e-14)
        assert np.all(z == 0)


def test_dual_certificate_failure_oracle():
    """With a_2 = (a_0 + a_1) / 1.5 and u0 = e_0 + e_1, every w with
    A_S^H w = sgn(u0_S) has (A^H w)_2 = 4/3, so V >= 4/3, and 1.5 e_2 is
    feasible with l1 1.5 < 2: u0 is not a minimizer."""
    rng = np.random.default_rng(6)
    a = _gaussian(8, 20, rng)
    a[:, 2] = (a[:, 0] + a[:, 1]) / 1.5
    u0 = np.zeros(20, dtype=complex)
    u0[:2] = 1.0
    assert np.allclose(a[:, 2] * 1.5, a @ u0, rtol=0, atol=1e-15)
    upper, lower, *_ = recovery.dual_certificate(a[None], u0[None])
    assert _decided(a[None], u0[None]) == [-1]
    assert 1 < lower[0] <= upper[0]
    assert upper[0] >= 4 / 3 * (1 - 1e-12)


def _sweep_draws(seed, m_index, m_count, m, n, s, trials):
    """The exact-data trials of one m of a recover-sweep, drawn as
    ``cli._recovered`` draws them."""
    child = np.random.SeedSequence(seed).spawn(m_count)[m_index]
    a = np.empty((trials, m, n), dtype=complex)
    u0 = np.zeros((trials, n), dtype=complex)
    for i, trial_seed in enumerate(child.spawn(trials)):
        rng = np.random.default_rng(trial_seed)
        a[i] = complex_normals(rng, 1, m * n).reshape(m, n) / np.sqrt(2 * m)
        support = rng.choice(n, size=s, replace=False)
        u0[i, support] = complex_normals(rng, 1, s)[0]
    return a, u0


def _planted_draws(seed, m, n, s, trials):
    rng = np.random.default_rng(seed)
    a = np.empty((trials, m, n), dtype=complex)
    u0 = np.empty((trials, n), dtype=complex)
    for i in range(trials):
        a[i], u0[i], _ = _planted(m, n, s, rng)
    return a, u0


@pytest.mark.parametrize("draws,moved", [
    # the README config at seed 1, m = 8, and the transition draws of
    # test_default_solve_recovers_the_trials_a_long_solve_recovers at rng
    # seeds 3 and 18: the default solve misses the moved trials
    (lambda: _sweep_draws(1, 0, 4, 8, 100, 3, 20), [6, 7, 8, 11]),
    (lambda: _planted_draws(3, 16, 100, 3, 10), [3]),
    (lambda: _planted_draws(18, 16, 100, 3, 10), [4])],
    ids=["readme-seed1-m8", "planted-3", "planted-18"])
def test_dual_certificate_witness(draws, moved):
    """Every certified row's w, rebuilt from z, meets A_S^H w = sgn(u0_S)
    to 1e-12 with its off-support maximum below 1; the moved trials are
    certified, and only by the Lawson rounds (z != 0)."""
    a, u0 = draws()
    upper, _, z, _ = recovery.dual_certificate(a, u0)
    certified = np.flatnonzero(_decided(a, u0) == 1)
    assert set(moved) <= set(certified)
    assert all(np.any(z[i] != 0) for i in moved)
    for i in certified:
        support = np.flatnonzero(u0[i])
        w = _witness(a[i], u0[i], z[i])
        sgn = u0[i, support] / np.abs(u0[i, support])
        assert np.max(np.abs(a[i][:, support].conj().T @ w - sgn)) <= 1e-12
        off = np.abs(a[i].conj().T @ w)
        off[support] = 0.0
        assert off.max() < 1
        assert off.max() == pytest.approx(upper[i], rel=1e-9)


def test_dual_certificate_rank_deficient_decides_nothing():
    rng = np.random.default_rng(5)
    a, u0, _ = _planted(2, 5, 3, rng)  # m < s
    twin = _gaussian(4, 5, rng)
    twin[:, 1] = twin[:, 0]  # A_S with two equal columns
    u1 = np.zeros(5, dtype=complex)
    u1[[0, 1, 3]] = [1.0, 1j, -1.0]
    full, u2, _ = _planted(4, 5, 3, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        upper, lower, z, bound = recovery.dual_certificate(a[None],
                                                           u0[None])
        assert np.isinf(upper).all() and (lower == 0).all() and z.size == 0
        assert np.isinf(bound).all()
        # a rank-deficient row next to a full-rank one
        upper, lower, z, bound = recovery.dual_certificate(
            np.stack([twin, full]), np.stack([u1, u2]), 1e-4)
        assert np.isinf(upper[0]) and lower[0] == 0 and np.isinf(bound[0])
        assert np.isnan(z[0]).all() and not np.isnan(z[1]).any()
        assert np.isfinite(upper[1])
    with pytest.raises(ValueError):
        recovery.dual_certificate(np.stack([twin, twin]),
                                  np.stack([u1, np.eye(5)[0]]))


def test_dual_certificate_more_rows_than_columns_runs_round_zero_only():
    # With m > n, M = A^H N has more columns than rows, so no Lawson round
    # runs and the least-squares round alone decides.
    rng = np.random.default_rng(8)
    a, u0, _ = _planted(12, 10, 3, rng)
    upper, lower, z, _ = recovery.dual_certificate(a[None], u0[None])
    assert np.isfinite(upper[0]) and lower[0] == 0 and np.all(z == 0)


@pytest.mark.parametrize("m,s,least_squares", [(8, 3, 1), (16, 3, 4),
                                                (12, 5, 0)])
def test_certificates_agree_with_a_long_solve(monkeypatch, m, s,
                                              least_squares):
    """Near the l1 transition the least-squares round certifies
    ``least_squares`` of 12 draws (z = 0) and the Lawson rounds decide the
    rest.  A 40000-step, 1e-11 solve agrees with every decision: it
    recovers each certified success, and on each certified failure its
    point, projected onto {A u = b}, has l1 below ||u0||_1."""
    a, u0 = _planted_draws(2, m, 100, s, 12)
    b = np.matvec(a, u0)
    decided = _decided(a, u0)
    z = recovery.dual_certificate(a, u0)[2]
    assert np.count_nonzero(np.all(z == 0, axis=1)) == least_squares
    assert np.all(decided != 0)
    assert 0 < np.count_nonzero(decided == 1) < 12
    monkeypatch.setattr(recovery, "MAX_ITERATIONS", 40000)
    monkeypatch.setattr(recovery, "TOLERANCE", 1e-11)
    long = recovery.bpdn_synthesis_stack(a, b)
    assert _recovered(long, u0) == list(decided == 1)
    for res, ai, bi, ui, d in zip(long, a, b, u0, decided):
        if d < 0:
            x = res.solution - np.linalg.pinv(ai) @ (ai @ res.solution - bi)
            assert np.linalg.norm(ai @ x - bi) <= 1e-12 * np.linalg.norm(bi)
            assert np.abs(x).sum() < np.abs(ui).sum()


def test_recovered_is_the_certificate_then_the_solve(monkeypatch):
    """``recovered`` returns, in row order, what ``dual_certificate``
    decides, and the 1e-3 rule on ``bpdn_synthesis_stack``'s solutions for
    the other rows, which alone reach the solver."""
    solve = recovery.bpdn_synthesis_stack
    solved = []

    def counted(a, b, eps=0.0):
        solved.append(len(a))
        return solve(a, b, eps)

    monkeypatch.setattr(recovery, "bpdn_synthesis_stack", counted)
    # Exact, s = 2: certified successes and failures, the failure oracle
    # (row 2) and a row whose A_S has two equal columns (row 3).
    a, u0 = _planted_draws(2, 8, 20, 2, 5)
    a[2][:, 2] = (a[2][:, 0] + a[2][:, 1]) / 1.5
    a[3][:, 1] = a[3][:, 0]
    u0[2:4] = 0.0
    u0[2, [0, 1]] = 1.0
    u0[3, [0, 1]] = [1.0, 1j]
    decided = _decided(a, u0)
    assert list(decided) == [1, -1, -1, 0, 1]
    b = np.matvec(a, u0)
    want = list(decided == 1)
    want[3] = _recovered(solve(a[3:4], b[3:4]), u0[3:4])[0]
    assert list(recovery.recovered(a, b, u0, 0.0)) == want
    assert solved == [1]
    # Exact with m < s: no row is decided, every row is solved.
    a, u0 = _planted_draws(5, 2, 5, 3, 3)
    assert not _decided(a, u0).any()
    b = np.matvec(a, u0)
    assert (list(recovery.recovered(a, b, u0, 0.0))
            == _recovered(solve(a, b), u0))
    # Noisy: the certificate proves rows 0-3 recovered, and rows 4 and 5,
    # of which only row 4 recovers, alone reach the solver.
    a, u0, b = _noisy_draws(1, 8, 24, 2, 6, 1e-4)
    certified = _certified(a, u0, 1e-4)
    assert list(certified) == [True] * 4 + [False] * 2
    want = list(certified)
    want[4:] = _recovered(solve(a[4:], b[4:], 1e-4), u0[4:])
    assert want[4:] == [True, False]
    assert list(recovery.recovered(a, b, u0, 1e-4)) == want
    assert solved == [1, 3, 2]
    # every certified row is also a success of the solve
    assert _recovered(solve(a[:4], b[:4], 1e-4), u0[:4]) == [True] * 4


def _noisy_draws(seed, m, n, s, trials, eps):
    """``_planted`` draws with noise of norm ``eps`` added to b."""
    rng = np.random.default_rng(seed)
    a, u0, b = (np.empty((trials,) + shape, dtype=complex)
                for shape in ((m, n), (n,), (m,)))
    for i in range(trials):
        a[i], u0[i], b[i] = _planted(m, n, s, rng)
        e = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        b[i] += e * (eps / np.linalg.norm(e))
    return a, u0, b


def _certified(a, u0, eps):
    """Where ``dual_certificate``'s bound puts every minimizer within the
    trial tolerance of u0."""
    return recovery.dual_certificate(a, u0, eps)[3] <= recovery.TRIAL_TOLERANCE


@pytest.mark.parametrize("eps", [0.0, 1e-4])
def test_recovered_groups_ragged_supports(eps):
    """A stack whose rows have different numbers of nonzeros gets, in row
    order, the decisions its rows of each support size get alone."""
    sizes = [3, 1, 5, 3, 5, 1, 2, 2, 5, 3, 4]
    rng = np.random.default_rng(4)
    a = np.empty((len(sizes), 10, 30), dtype=complex)
    u0 = np.empty((len(sizes), 30), dtype=complex)
    b = np.empty((len(sizes), 10), dtype=complex)
    for i, s in enumerate(sizes):
        a[i], u0[i], b[i] = _planted(10, 30, s, rng)
        e = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        b[i] += e * (eps / np.linalg.norm(e))
    got = recovery.recovered(a, b, u0, eps)
    assert 0 < np.count_nonzero(got) < len(sizes)
    for s in set(sizes):
        rows = [i for i, size in enumerate(sizes) if size == s]
        alone = recovery.recovered(a[rows], b[rows], u0[rows], eps)
        assert list(got[rows]) == list(alone), s


def test_noisy_certificate_orthonormal_oracle(monkeypatch):
    """With orthonormal columns (m = n) the least-squares witness has V = 0,
    sigma_min(A_S) = 1 and A_S^+ a_j = 0 off S, so the bound is exactly
    2 eps sqrt(1 + s) / ||u0||: a row is certified just below the eps at
    which that reaches the trial tolerance, and solved just above it, or
    where the noise exceeds eps."""
    solve = recovery.bpdn_synthesis_stack
    solved = []

    def counted(a, b, eps=0.0):
        solved.append(len(a))
        return solve(a, b, eps)

    monkeypatch.setattr(recovery, "bpdn_synthesis_stack", counted)
    n = 8
    a = np.fft.fft(np.eye(n))[None] / np.sqrt(n)
    u0 = np.zeros((1, n), dtype=complex)
    u0[0, [1, 4, 6]] = [2.0, 1j, -1.0 + 1j]
    oracle = 2 * math.sqrt(1 + 3) / np.linalg.norm(u0)
    edge = recovery.TRIAL_TOLERANCE / oracle
    e = np.exp(0.5j * np.arange(n)) / math.sqrt(n)  # unit noise
    for eps, inside in ((edge * (1 - 1e-6), True), (edge * (1 + 1e-6), False)):
        upper, _, z, bound = recovery.dual_certificate(a, u0, eps)
        assert upper[0] <= 1e-14 and np.all(z == 0)
        assert bound[0] == pytest.approx(oracle * eps, rel=1e-12)
        solved.clear()
        recovery.recovered(a, np.matvec(a, u0) + eps * e, u0, eps)
        assert solved == ([] if inside else [1])
    # noise above eps: the bound does not hold, so the row is solved
    eps = edge * (1 - 1e-6)
    solved.clear()
    recovery.recovered(a, np.matvec(a, u0) + eps * (1 + 1e-6) * e, u0, eps)
    assert solved == [1]


@pytest.mark.parametrize("m", [12, 16, 24])
def test_noisy_certificate_bounds_a_long_solve(monkeypatch, m):
    """Near the l1 transition at n = 40, s = 3, every row the certificate
    decides has a witness w with A_S^H w = sgn(u0_S) and V_w < 1 whose
    bound, rebuilt from its definition, is the one returned; and a
    40000-step, 1e-11 solve lies within that bound and within the trial
    tolerance of u0.  At eps = 1e-3 the bound's first term 2 eps /
    sigma_min(A_S) alone exceeds the limit, so no row is certified, and
    every row leaves after the least-squares round (lower is still 0).  At
    eps = 1e-4 the rows left open stop within a few Lawson rounds, not at
    ``CERTIFICATE_ROUNDS``."""
    monkeypatch.setattr(recovery, "MAX_ITERATIONS", 40000)
    monkeypatch.setattr(recovery, "TOLERANCE", 1e-11)
    qr, rounds = np.linalg.qr, []

    def counted_qr(mat):
        rounds.append(len(mat))
        return qr(mat)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    for eps in (1e-4, 1e-3):
        a, u0, b = _noisy_draws(m, m, 40, 3, 8, eps)
        rounds.clear()
        _, lower, z, bound = recovery.dual_certificate(a, u0, eps)
        assert len(rounds) <= 5
        certified = np.flatnonzero(_certified(a, u0, eps))
        assert (certified.size > 0) == (eps == 1e-4)
        assert (eps == 1e-4) or not lower.any()
        long = recovery.bpdn_synthesis_stack(a[certified], b[certified], eps)
        for i, res in zip(certified, long):
            support = np.flatnonzero(u0[i])
            a_s = a[i][:, support]
            w = _witness(a[i], u0[i], z[i])
            sgn = u0[i, support] / np.abs(u0[i, support])
            assert np.max(np.abs(a_s.conj().T @ w - sgn)) <= 1e-12
            off = np.abs(a[i].conj().T @ w)
            off[support] = 0.0
            assert off.max() < 1
            spill = np.linalg.norm(np.linalg.pinv(a_s) @ a[i], axis=0)
            spill[support] = 0.0
            b_off = 2 * eps * np.linalg.norm(w) / (1 - off.max())
            b_on = (2 * eps / np.linalg.svd(a_s, compute_uv=False)[-1]
                    + spill.max() * b_off)
            err = np.linalg.norm(res.solution - u0[i]) / np.linalg.norm(u0[i])
            assert bound[i] == pytest.approx(
                math.hypot(b_on, b_off) / np.linalg.norm(u0[i]), rel=1e-9)
            assert err <= bound[i] <= recovery.TRIAL_TOLERANCE


def test_only_recovery_names_the_trial_rule():
    # Every planted trial is decided by recovery.recovered; no other module
    # reaches the certificate, its margin or the stacked solver.
    src = Path(recovery.__file__).parent
    texts = {p.name: p.read_text() for p in src.glob("*.py")}
    for name in ("dual_certificate", "CERTIFICATE_MARGIN",
                 "TRIAL_TOLERANCE", "bpdn_synthesis_stack"):
        assert [module for module, text in texts.items()
                if name in text] == ["recovery.py"], name

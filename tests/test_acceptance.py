"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for its criterion; run with
``pytest -s tests/test_acceptance.py`` to see the lines live.
"""

import itertools
import json
import math
import time

import numpy as np

from bilinlab import (cli, embedding, freiman, operators, phase, recovery,
                      rnmp, signals)
from bilinlab.signals import SparseVector


def _report(label, ok):
    print("ACCEPTANCE {}: {}".format(label, "PASS" if ok else "FAIL"))
    assert ok, label


def test_acceptance_01_rnmp_equality_case():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    ok = True
    for _ in range(10 ** 4):
        n = int(rng.integers(2, 65))
        s = int(rng.integers(1, min(n, 8) + 1))
        x = signals.random_sparse_vector(n, s, rng)
        y = signals.random_sparse_vector(n, 1, rng)
        norm = signals.circular_convolve(x, y).norm()
        if not 1 - 1e-9 <= norm <= 1 + 1e-9:
            ok = False
            break
    elapsed = time.monotonic() - start
    _report("01 rnmp equality case min(s,f)=1 (10^4 pairs, "
            f"{elapsed:.1f}s < 10s)", ok and elapsed < 10.0)


def test_acceptance_02_rnmp_upper_bound():
    rng = np.random.default_rng(102)
    n = 64
    ok = True
    batch = 4000
    combos = list(itertools.product(range(1, 6), range(1, 6)))
    for s, f in combos:
        bound = math.sqrt(min(s, f)) + 1e-9
        xs = np.zeros((batch, n), dtype=complex)
        ys = np.zeros((batch, n), dtype=complex)
        rows = np.arange(batch)[:, None]
        sup_x = np.argsort(rng.random((batch, n)), axis=1)[:, :s]
        sup_y = np.argsort(rng.random((batch, n)), axis=1)[:, :f]
        vx = rng.standard_normal((batch, s)) + 1j * rng.standard_normal((batch, s))
        vy = rng.standard_normal((batch, f)) + 1j * rng.standard_normal((batch, f))
        xs[rows, sup_x] = vx / np.linalg.norm(vx, axis=1, keepdims=True)
        ys[rows, sup_y] = vy / np.linalg.norm(vy, axis=1, keepdims=True)
        conv = np.fft.ifft(np.fft.fft(xs, axis=1) * np.fft.fft(ys, axis=1),
                           axis=1)
        norms = np.linalg.norm(conv, axis=1)
        if norms.max() > bound:
            ok = False
            break
    _report("02 rnmp upper bound sqrt(min(s,f)) (10^5 pairs)", ok)


def test_acceptance_03_eigen_det_bound():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(10 ** 3):
        n = int(rng.integers(2, 17))
        s = int(rng.integers(1, 6))
        t = signals.random_sparse_vector(16, s, rng)
        toep = rnmp.autocorrelation_toeplitz(t, n)
        if rnmp.eigen_det_lower_bound(toep) > rnmp.min_eigenvalue(toep) + 1e-10:
            ok = False
            break
    frozen = rnmp.HermitianToeplitz(2, (1.0, 0.5))
    ok = ok and abs(rnmp.eigen_det_lower_bound(frozen) - 0.4330) < 5e-5
    ok = ok and abs(rnmp.min_eigenvalue(frozen) - 0.5) < 1e-10
    _report("03 eigen/det bound (10^3 random + frozen 0.4330/0.5)", ok)


def _grid_oracle_alpha_2_2_n4(points_per_axis=100):
    """Exhaustive minimum of ||x * y|| over 2-sparse unit pairs at n = 4.

    Supports are translation normalized to contain 0.  For each y on a
    sphere grid the optimal x on a fixed support is the bottom eigenvector
    of the 2x2 restricted autocorrelation matrix, whose smallest
    eigenvalue is 1 - |b_gap(y)|; the grid scans y exactly.
    """
    theta = np.linspace(0.0, np.pi / 2, points_per_axis)
    phi = np.linspace(0.0, 2 * np.pi, points_per_axis, endpoint=False)
    tt, pp = np.meshgrid(theta, phi)
    y0 = np.cos(tt)
    y1 = np.sin(tt) * np.exp(1j * pp)
    best = np.inf
    for gap_x in (1, 2, 3):
        for gap_y in (1, 2, 3):
            # autocorrelation of y at lag gap_x; only lag gap_y is nonzero
            b = np.conj(y0) * y1 if gap_x == gap_y else np.zeros_like(y1)
            lam_min = 1.0 - np.abs(b)
            best = min(best, float(lam_min.min()))
    return math.sqrt(best)


def test_acceptance_04_alpha_empirical_vs_grid():
    start = time.monotonic()
    oracle = _grid_oracle_alpha_2_2_n4()
    emp = rnmp.alpha_empirical(2, 2, 4, trials=8, seed=0)
    elapsed = time.monotonic() - start
    gap = abs(emp - oracle)
    _report("04 alpha_empirical(2,2,4)={:.4f} vs 10^4-point grid {:.4f} "
            "(|gap|={:.1e} < 0.02, {:.1f}s < 60s)".format(
                emp, oracle, gap, elapsed),
            gap < 0.02 and elapsed < 60.0)


def _distortion_run(m, n, trials, seed):
    phi = operators.gaussian_operator(m, n, seed=seed)
    bmap = operators.convolution_lift(n)
    spec = embedding.StructuredSetSpec(n, n, s=2, f=2)
    return embedding.verify_embedding(phi, bmap, spec, trials, seed).delta_hat


def test_acceptance_05_embedding_monte_carlo():
    n, delta, c_dprime = 64, 0.5, 1.0
    m = embedding.sample_complexity_bilinear(2, 2, 1, n, delta, c_dprime)
    assert m == 56
    good = sum(_distortion_run(m, n, 1000, seed) <= delta
               for seed in range(100))
    bad = sum(_distortion_run(4, n, 1000, seed) > delta
              for seed in range(100))
    _report("05 embedding MC: m={} (calibrated c''={}) ok {}/100 >= 95, "
            "m=4 control fails {}/100 >= 95".format(m, c_dprime, good, bad),
            good >= 95 and bad >= 95)


def test_acceptance_06_universal_demodulator():
    rng = np.random.default_rng(106)
    fft_ok = True
    for n in range(1, 33):
        m = max(1, n // 2 + 1)
        op = operators.universal_random_demodulator(m, n, seed_eta=n,
                                                    seed_xi=n + 1, omega=n + 2)
        dense = op.materialize()
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if np.linalg.norm(dense @ x - op.apply(x)) > 1e-10 * np.linalg.norm(x):
            fft_ok = False
            break
    # distortion statistics vs the Gaussian ensemble on a fixed 100-point
    # cloud of M_{2,2} images, averaged over 8 independent operator draws
    n, m = 64, 16
    bmap = operators.convolution_lift(n)
    spec = embedding.StructuredSetSpec(n, n, s=2, f=2)
    cloud_rng = np.random.default_rng(1060)
    cloud = []
    while len(cloud) < 100:
        u = embedding.sample_structured(spec, cloud_rng)
        v = bmap.apply_pair(u.x, u.y)
        if np.linalg.norm(v) > 1e-12:
            cloud.append(v / np.linalg.norm(v))
    cloud = np.array(cloud)

    def mean_delta(make):
        deltas = []
        for k in range(8):
            op = make(k)
            ratios = np.array([np.linalg.norm(op.apply(v)) for v in cloud])
            deltas.append(np.max(np.abs(ratios - 1.0)))
        return float(np.mean(deltas))

    d_gauss = mean_delta(lambda k: operators.gaussian_operator(m, n, seed=k))
    d_demod = mean_delta(lambda k: operators.universal_random_demodulator(
        m, n, seed_eta=3 * k, seed_xi=3 * k + 1, omega=3 * k + 2))
    gap = abs(d_gauss - d_demod)
    _report("06 demodulator: FFT=dense n<=32, mean distortion gap "
            "|{:.3f}-{:.3f}|={:.3f} <= 0.1".format(d_gauss, d_demod, gap),
            fft_ok and gap <= 0.1)


def test_acceptance_07_binomial_identity():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(10 ** 4):
        n = int(rng.integers(2, 17))
        big_n = 4 * n - 3
        bmap = operators.convolution_lift(big_n)
        x1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x1[0] = x1[0].real
        x2[0] = x2[0].real
        s1 = phase.zero_pad_symmetrize(x1)
        s2 = phase.zero_pad_symmetrize(x2)
        worst = max(worst, phase.binomial_difference_check(s1, s2, bmap))
        if worst > 1e-10:
            break
    _report("07 binomial identity residual {:.1e} <= 1e-10 "
            "(10^4 symmetrized pairs)".format(worst), worst <= 1e-10)


def test_acceptance_08_phase_stability():
    rng = np.random.default_rng(108)
    sign_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 5))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x[0] = x[0].real
        a = phase.intensity_measurements(x)
        b = phase.intensity_measurements(-x)
        if np.max(np.abs(a - b)) > 1e-12:
            sign_ok = False
    positive_ok = True
    cross_ok = True
    lines = []
    for n in (2, 3, 4):
        est = phase.stability_constant_estimate(n, trials=10 ** 4, seed=0)
        positive_ok = positive_ok and est.c_hat > 0
        lines.append("n={} c_hat={:.4f}".format(n, est.c_hat))
        if n in (2, 3):
            budget = rnmp.alpha_empirical(n, n, 4 * n - 3,
                                          trials=8, seed=0) + 0.05
            cross_ok = cross_ok and est.c_hat * math.sqrt(4 * n - 3) <= budget
    _report("08 phase stability ({}) sign-invariant, c_hat>0, "
            "cross-check at n=2,3".format("; ".join(lines)),
            sign_ok and positive_ok and cross_ok)


def test_acceptance_09_freiman():
    result = freiman.min_diameter_isomorphic_image((0, 1, 10))
    compress_ok = result.diameter == 3
    rng = np.random.default_rng(109)
    norm_ok = True
    diam_ok = True
    cases = 0
    while cases < 10 ** 3:
        m = int(rng.integers(2, 7))
        elems = tuple(sorted(rng.choice(16, size=m, replace=False).tolist()))
        remap = freiman.min_diameter_isomorphic_image(elems, budget=300000)
        if not remap.verified_isomorphism:
            continue
        if remap.diameter > freiman.grynkiewicz_bound(len(elems)):
            diam_ok = False
            break
        for _ in range(25):
            cases += 1
            ks = max(1, m - 1)
            sx = tuple(sorted(rng.choice(elems, size=ks, replace=False)))
            sy = tuple(sorted(rng.choice(elems, size=max(1, m // 2),
                                         replace=False)))
            vx = rng.standard_normal(ks) + 1j * rng.standard_normal(ks)
            vy = (rng.standard_normal(len(sy))
                  + 1j * rng.standard_normal(len(sy)))
            res = freiman.remapped_convolution_norm_check(
                (sx, tuple(vx)), (sy, tuple(vy)), remap)
            if res > 1e-10 * np.linalg.norm(vx) * np.linalg.norm(vy):
                norm_ok = False
                break
        if not norm_ok:
            break
    _report("09 freiman: {{0,1,10}} -> diam 3, norm invariance over "
            "{} cases, diameters within bound".format(cases),
            compress_ok and norm_ok and diam_ok)


def test_acceptance_10_bpdn_planted_recovery():
    rng = np.random.default_rng(2024)
    n, s = 100, 3
    # draw every trial first, in the per-trial order, then solve the stack
    a = np.empty((100, 40, n), dtype=complex)
    u0 = np.zeros((100, n), dtype=complex)
    for i in range(100):
        a[i] = (rng.standard_normal((40, n))
                + 1j * rng.standard_normal((40, n))) / math.sqrt(80)
        support = rng.choice(n, size=s, replace=False)
        u0[i, support] = rng.standard_normal(s) + 1j * rng.standard_normal(s)
    results = recovery.bpdn_synthesis_stack(a, np.matvec(a, u0))
    successes = sum(
        int(np.linalg.norm(res.solution - u) <= 1e-3 * np.linalg.norm(u))
        for res, u in zip(results, u0))
    # nested-row sweep: each trial reuses one tall matrix so the success
    # indicator can only improve as rows are added
    m_values = list(range(8, 48, 4))
    trials = 20
    a_full = np.empty((trials, max(m_values), n), dtype=complex)
    u0 = np.zeros((trials, n), dtype=complex)
    for i in range(trials):
        a_full[i] = (rng.standard_normal((max(m_values), n))
                     + 1j * rng.standard_normal((max(m_values), n)))
        support = rng.choice(n, size=s, replace=False)
        u0[i, support] = rng.standard_normal(s) + 1j * rng.standard_normal(s)
    rates = []
    for m in m_values:
        a = a_full[:, :m] / math.sqrt(2 * m)
        results = recovery.bpdn_synthesis_stack(a, np.matvec(a, u0))
        rates.append(sum(
            int(np.linalg.norm(res.solution - u) <= 1e-3 * np.linalg.norm(u))
            for res, u in zip(results, u0)) / trials)
    monotone = all(b >= a for a, b in zip(rates, rates[1:]))
    _report("10 bpdn recovery {}/100 >= 98, sweep {} nondecreasing".format(
        successes, rates), successes >= 98 and monotone)


_CLI_CONFIGS = {
    "rnmp-bound": "command = rnmp-bound\ns = 2\nf = 2\nn = 6\n"
                  "trials = 4\ndet_budget = 2\n",
    "embed-verify": "command = embed-verify\nensemble = gaussian\n"
                    "m = 10\nn = 12\ntrials = 20\n",
    "recover-sweep": "command = recover-sweep\nn = 30\nsparsity = 2\n"
                     "m_values = 8,16\ntrials = 3\n",
    "phase-stability": "command = phase-stability\nn = 2\ntrials = 40\n",
    "freiman-search": "command = freiman-search\nset = 0,1,10\n",
    "demod-selftest": "command = demod-selftest\nn = 16\n",
}


def test_acceptance_11_cli_determinism(tmp_path):
    ok = True
    for name, body in _CLI_CONFIGS.items():
        cfg = tmp_path / (name + ".cfg")
        cfg.write_text(body)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / name / tag
            code = cli.main(["--config", str(cfg), "--out", str(out),
                             "--format", "csv", "--seed", "5"])
            assert code == 0, name
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        if files_a != files_b or not files_a:
            ok = False
            break
        for fname in files_a:
            if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes():
                ok = False
                break
    _report("11 cli determinism (6 commands, byte-identical reports)", ok)

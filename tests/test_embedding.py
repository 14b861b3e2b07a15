import itertools
import math
from collections import Counter

import numpy as np
import pytest

from bilinlab import embedding, operators, signals
from bilinlab.embedding import StructuredSetSpec


def test_sample_complexity_bilinear():
    assert embedding.sample_complexity_bilinear(2, 2, 1, 256, 0.5) == 78
    assert embedding.sample_complexity_bilinear(2, 2, 1, 64, 0.5) == 56
    m = embedding.sample_complexity_bilinear(2, 2, 1, 256, 0.5)
    m_half = embedding.sample_complexity_bilinear(2, 2, 1, 256, 0.25)
    assert 4 * (m - 1) < m_half <= 4 * m
    # case (ii): kappa = 2 lowers the log argument
    assert embedding.sample_complexity_bilinear(2, 2, 2, 256, 0.5) < m
    with pytest.raises(ValueError):
        embedding.sample_complexity_bilinear(2, 2, 1, 256, 1.5)
    # log(n / (kappa min(s, f))) <= 0 gave counts 0, -11 and -19; a rank
    # outside 1..min(s, f) is no sparse rank-kappa set
    for s, f, kappa, n in ((2, 2, 1, 2), (2, 2, 2, 2), (3, 3, 3, 4),
                           (2, 2, 1, 1), (2, 2, 0, 256), (2, 3, 3, 256)):
        with pytest.raises(ValueError):
            embedding.sample_complexity_bilinear(s, f, kappa, n, 0.5)
    assert embedding.sample_complexity_bilinear(2, 2, 1, 3, 0.5) == 7


def test_spec_validation():
    for args in ((8, 8, 9, 2), (8, 8, 2, 9), (0, 8, 1, 1), (8, 8, 0, 2)):
        with pytest.raises(ValueError):
            StructuredSetSpec(*args)
    StructuredSetSpec(8, 8, 2, 3)


def test_sample_structured_shapes():
    rng = np.random.default_rng(0)
    u = embedding.sample_structured(StructuredSetSpec(10, 12, 2, 3), rng)
    assert (u.x.shape, u.y.shape) == ((10,), (12,))
    for v, support, s in ((u.x, u.support_x, 2), (u.y, u.support_y, 3)):
        assert tuple(np.flatnonzero(v).tolist()) == support
        assert len(support) == s
        assert np.linalg.norm(v) == pytest.approx(1.0)


def test_verify_embedding_identity():
    n = 12
    phi = operators.identity_operator(n)
    bmap = operators.convolution_lift(n)
    spec = StructuredSetSpec(n, n, s=2, f=2)
    report = embedding.verify_embedding(phi, bmap, spec, trials=50, seed=0)
    assert report.delta_hat <= 1e-10


def test_verify_embedding_unitary_demodulator():
    n = 16
    phi = operators.partial_circulant_demodulator(n, n, seed_eta=3,
                                                  omega=list(range(n)))
    bmap = operators.convolution_lift(n)
    spec = StructuredSetSpec(n, n, s=2, f=2)
    report = embedding.verify_embedding(phi, bmap, spec, trials=50, seed=1)
    assert report.delta_hat <= 1e-10


def test_verify_embedding_determinism_and_mismatch():
    n = 10
    phi = operators.gaussian_operator(8, n, seed=5)
    bmap = operators.convolution_lift(n)
    spec = StructuredSetSpec(n, n, s=2, f=2)
    r1 = embedding.verify_embedding(phi, bmap, spec, trials=30, seed=7)
    r2 = embedding.verify_embedding(phi, bmap, spec, trials=30, seed=7)
    assert r1 == r2
    with pytest.raises(ValueError):
        embedding.verify_embedding(operators.gaussian_operator(8, n + 1, 0),
                                   bmap, spec, 10, 0)


def test_report_serialization():
    n = 8
    report = embedding.verify_embedding(
        operators.identity_operator(n), operators.convolution_lift(n),
        StructuredSetSpec(n, n, s=2, f=2),
        trials=5, seed=0)
    rows = list(report.to_csv_rows())
    assert rows[0] == "trial_id,ratio,support_x,support_y"
    assert len(rows) == 6
    summary = report.summary()
    assert summary["trials"] == 5
    assert summary["delta_hat_is_lower_estimate"]
    assert summary["operator"]["ensemble"] == "identity"


# The per-trial sampler and loop as the reference: one trial at a time,
# x and y each drawing standard_normal(n + 2w) from its own stream (n keys,
# then the real and the imaginary parts of w coefficients), then one
# sample, one lift, one Phi and three norms per trial.

def _reference_sparse_factor(rng, n, s):
    g = rng.standard_normal(n + 2 * s)
    support = np.sort(np.argsort(g[:n], kind="stable")[:s])
    vals = g[n:n + s] + 1j * g[n + s:]
    v = np.zeros(n, dtype=complex)
    v[support] = vals / np.linalg.norm(vals)
    return v, tuple(int(i) for i in support)


def _reference_sample_structured(spec, rng_x, rng_y):
    x, sx = _reference_sparse_factor(rng_x, spec.n1, spec.s)
    y, sy = _reference_sparse_factor(rng_y, spec.n2, spec.f)
    return embedding.StructuredSample(x, y, sx, sy)


def _reference_verify_embedding(phi, b, spec, trials, seed):
    rng_x, rng_y = (np.random.default_rng(s)
                    for s in np.random.SeedSequence(seed).spawn(2))
    records = []
    skipped = 0
    for trial_id in range(trials):
        u = _reference_sample_structured(spec, rng_x, rng_y)
        v = b.apply_pair(u.x, u.y)
        vn = np.linalg.norm(v)
        un = np.linalg.norm(np.outer(u.x, u.y))
        if vn < embedding.NEAR_KERNEL_REL * un:
            skipped += 1
            continue
        ratio = float(np.linalg.norm(phi.apply(v)) / vn)
        records.append((trial_id, ratio, u.support_x, u.support_y))
    ratios = [r for _, r, _, _ in records]
    max_ratio = max(ratios) if ratios else math.nan
    min_ratio = min(ratios) if ratios else math.nan
    delta_hat = max(abs(r - 1.0) for r in ratios) if ratios else math.nan
    return embedding.DistortionReport(trials, max_ratio, min_ratio,
                                      delta_hat, tuple(records), skipped,
                                      seed, dict(phi.descriptor))


# Two (s, f) shapes, so that a mix-up of the x and y draws shows.
SPECS = [StructuredSetSpec(8, 8, 2, 3), StructuredSetSpec(8, 8, 3, 2)]


def _shape(spec):
    return f"s{spec.s}-f{spec.f}"


@pytest.mark.parametrize("spec", SPECS, ids=_shape)
def test_stacked_sampler_matches_reference(spec):
    for seed in range(20):
        got = embedding.sample_structured(spec, np.random.default_rng(seed))
        # the caller's generator draws x and then y
        rng = np.random.default_rng(seed)
        want = _reference_sample_structured(spec, rng, rng)
        assert np.array_equal(got.x, want.x)
        assert np.array_equal(got.y, want.y)
        assert (got.support_x, got.support_y) == (want.support_x,
                                                  want.support_y)


OPERATORS = {
    "identity": lambda n: (operators.identity_operator(n),
                           operators.convolution_lift(n)),
    "gaussian_wide": lambda n: (operators.gaussian_operator(n - 2, n, 3),
                                operators.convolution_lift(n)),
    "gaussian_tall": lambda n: (operators.gaussian_operator(n + 4, n, 4),
                                operators.convolution_lift(n)),
    "partial_circulant": lambda n: (
        operators.partial_circulant_demodulator(n - 3, n, 5, omega=6),
        operators.convolution_lift(n)),
    "demodulator": lambda n: (
        operators.universal_random_demodulator(n - 3, n, 5, 7, omega=6),
        operators.convolution_lift(n)),
}


@pytest.mark.parametrize("name", OPERATORS)
def test_verify_embedding_matches_reference_across_stacks(monkeypatch, name):
    # Small stacks, so that every trial count below crosses a boundary.
    monkeypatch.setattr(embedding, "STACK_ENTRIES", 64)
    phi, b = OPERATORS[name](8)
    for spec in SPECS:
        step = embedding.stack_trials(phi, b, spec)
        assert 2 <= step < 10
        for trials in (1, step - 1, step, step + 1, 5 * step // 2):
            for seed in (0, 7):
                got = embedding.verify_embedding(phi, b, spec, trials, seed)
                want = _reference_verify_embedding(phi, b, spec, trials, seed)
                assert got == want


# The sparse rank-one set is the one kind left; this checks it at a stack
# four times the size used above, so that a partial last stack shows.
@pytest.mark.parametrize("spec", [StructuredSetSpec(8, 8, s=2, f=3)],
                         ids=["sparse_rank_one"])
def test_every_kind_matches_reference(monkeypatch, spec):
    monkeypatch.setattr(embedding, "STACK_ENTRIES", 256)
    phi, b = OPERATORS["gaussian_wide"](8)
    step = embedding.stack_trials(phi, b, spec)
    trials = 5 * step // 2
    assert trials > step
    assert embedding.verify_embedding(phi, b, spec, trials, 2) \
        == _reference_verify_embedding(phi, b, spec, trials, 2)


def test_verify_embedding_matches_reference_at_default_stack():
    n = 64
    phi = operators.gaussian_operator(56, n, 0)
    b = operators.convolution_lift(n)
    spec = StructuredSetSpec(n, n, s=2, f=2)
    step = embedding.stack_trials(phi, b, spec)
    assert step == 64
    assert embedding.verify_embedding(phi, b, spec, 2 * step + 1, 1) \
        == _reference_verify_embedding(phi, b, spec, 2 * step + 1, 1)


def test_near_kernel_skips_inside_a_stack(monkeypatch):
    # x * y vanishes exactly when the supports are disjoint, so some rows
    # of a stack are skipped and the others measured.
    monkeypatch.setattr(embedding, "STACK_ENTRIES", 64)
    n = 8
    b = operators.BilinearMap(n, n, n, lambda x, y: x * y)
    phi = operators.gaussian_operator(6, n, 1)
    spec = StructuredSetSpec(n, n, s=3, f=3)
    report = embedding.verify_embedding(phi, b, spec, 40, 3)
    assert 0 < report.skipped < 40
    assert report == _reference_verify_embedding(phi, b, spec, 40, 3)


@pytest.mark.parametrize("spec", SPECS, ids=_shape)
def test_stack_size_does_not_change_the_report(monkeypatch, spec):
    # Trial i takes the i-th draw of the x and y streams, so neither the
    # stack size nor the trial count moves a trial's member.
    phi, b = OPERATORS["gaussian_wide"](8)
    reports = []
    steps = []
    for entries in (64, 256):
        monkeypatch.setattr(embedding, "STACK_ENTRIES", entries)
        steps.append(embedding.stack_trials(phi, b, spec))
        reports.append(embedding.verify_embedding(phi, b, spec, 37, 5))
    assert steps[0] < steps[1] < 37
    assert reports[0] == reports[1]
    fewer = embedding.verify_embedding(phi, b, spec, 20, 5)
    assert fewer.records == tuple(r for r in reports[1].records if r[0] < 20)


def _chi2_uniform_subsets(supports, n, s):
    """Chi-square statistic of the support counts against the uniform law
    on the s-subsets of range(n), all of which must appear."""
    subsets = list(itertools.combinations(range(n), s))
    counts = Counter(supports)
    assert sorted(counts) == subsets
    expected = len(supports) / len(subsets)
    return sum((c - expected) ** 2 / expected for c in counts.values())


def test_sampling_law_uniform_supports_unit_factors():
    # Every s-subset is equally likely and every factor has unit norm:
    # the law the Monte Carlo distortion estimates assume.
    n, s, t = 6, 2, 3000
    spec = StructuredSetSpec(n, n, s, s)
    rngs = [np.random.default_rng(g)
            for g in np.random.SeedSequence(2024).spawn(2)]
    x, sx, y, sy = embedding._sample_pairs(spec, *rngs, t)
    for factor, supports in ((x, sx), (y, sy)):
        assert np.max(np.abs(np.linalg.norm(factor, axis=1) - 1.0)) <= 1e-12
        for row, support in zip(factor, supports):
            assert tuple(np.flatnonzero(row).tolist()) == support
        # 36.12 is the 0.999 quantile of chi-square, 14 dof
        assert _chi2_uniform_subsets(supports, n, s) < 36.12
    # The w = 0 draw of the sampled alpha_empirical pairs: supports only.
    supports, coeffs = signals.sparse_draws(rngs[0], t, n, s)
    assert coeffs.shape == (t, 0)
    assert _chi2_uniform_subsets(list(map(tuple, supports.tolist())), n,
                                 s) < 36.12
    # random_sparse_vector: the normalized one-row case of the same draw.
    vecs = [signals.random_sparse_vector(n, s, rngs[1]) for _ in range(t)]
    assert max(abs(v.norm() - 1.0) for v in vecs) <= 1e-12
    assert _chi2_uniform_subsets([v.support for v in vecs], n, s) < 36.12

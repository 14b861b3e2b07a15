import math

import numpy as np
import pytest

from bilinlab import operators, phase, signals
from bilinlab.signals import SparseVector


def _random_real_head(n, rng):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v[0] = v[0].real
    return v


def test_symmetrize_examples():
    s = phase.symmetrize(np.array([1.0, 0, 0, 0]))
    assert s.tolist() == [1, 0, 0, 0, 0, 0, 0]
    s2 = phase.symmetrize(np.array([1.0, 1j]))
    assert np.allclose(s2, [1.0, 1j, -1j])
    with pytest.raises(ValueError):
        phase.symmetrize(np.array([1j, 1.0]))


def test_symmetrize_conjugate_symmetry_and_norm_bounds():
    rng = np.random.default_rng(0)
    for n in (2, 5, 9):
        x = _random_real_head(n, rng)
        s = phase.symmetrize(x)
        assert np.allclose(s, np.conj(np.roll(s[::-1], 1)), atol=1e-12)
        nx2 = np.linalg.norm(x) ** 2
        ns2 = np.linalg.norm(s) ** 2
        assert nx2 - 1e-10 <= ns2 <= 2 * nx2 + 1e-10


def test_zero_pad_symmetrize_length():
    s = phase.zero_pad_symmetrize(np.array([1.0, 2.0, 3.0]))
    assert s.shape == (4 * 3 - 3,)
    assert s.tolist() == [1, 2, 3, 0, 0, 0, 0, 3, 2]


def test_symmetrize_prime():
    z = phase.symmetrize_prime(np.zeros(3))
    assert np.allclose(z, 0.0)
    rng = np.random.default_rng(1)
    # no restriction on the leading entry
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    sp = phase.symmetrize_prime(x)
    assert sp.size == 4 * 4 - 1
    assert np.linalg.norm(sp) ** 2 == pytest.approx(
        2 * np.linalg.norm(x) ** 2, rel=1e-12)
    assert np.allclose(sp, np.conj(np.roll(sp[::-1], 1)), atol=1e-12)


def test_intensity_sign_invariance_exact():
    rng = np.random.default_rng(2)
    for variant in (phase.VARIANT_S, phase.VARIANT_S_PRIME):
        x = _random_real_head(5, rng)
        a = phase.intensity_measurements(x, variant)
        b = phase.intensity_measurements(-x, variant)
        assert np.max(np.abs(a - b)) <= 1e-12
        assert a.min() >= -1e-12
    with pytest.raises(ValueError):
        phase.intensity_measurements(x, "S_unknown")


def test_intensity_of_delta():
    n = 3
    out = phase.intensity_measurements(np.array([1.0, 0, 0]))
    big_n = 4 * n - 3
    assert np.allclose(out, np.full(big_n, 1.0 / big_n), atol=1e-12)


def test_fourier_identity_for_symmetrized_autocorrelation():
    # F(S conv S) = sqrt(4n-3) |F S|^2 with the symmetrized convolution
    rng = np.random.default_rng(3)
    n = 4
    x = _random_real_head(n, rng)
    s = phase.zero_pad_symmetrize(x)
    big_n = s.size
    conv = signals.circular_convolve(
        SparseVector.from_dense(s),
        SparseVector.from_dense(np.roll(np.conj(s)[::-1], 1)))
    lhs = np.fft.fft(conv.dense(), norm="ortho")
    fs = np.fft.fft(s, norm="ortho")
    rhs = math.sqrt(big_n) * np.abs(fs) ** 2
    assert np.max(np.abs(lhs - rhs)) <= 1e-12
    # and the intensity map is exactly those squared magnitudes
    assert np.allclose(phase.intensity_measurements(x), np.abs(fs) ** 2,
                       atol=1e-14)


def test_binomial_identity_for_convolution():
    rng = np.random.default_rng(4)
    n = 13
    bmap = operators.convolution_lift(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert phase.binomial_difference_check(x, x, bmap) <= 1e-14
    for _ in range(25):
        x1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert phase.binomial_difference_check(x1, x2, bmap) <= 1e-10


def _correlation_map(n):
    def pair(x, y):
        rev = np.roll(y[::-1], 1)
        return np.fft.ifft(np.fft.fft(x) * np.fft.fft(np.conj(rev)))
    return operators.BilinearMap(n, n, n, pair)


def test_binomial_rejects_asymmetric_map():
    rng = np.random.default_rng(5)
    n = 8
    x1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    with pytest.raises(ValueError, match="not symmetric"):
        phase.binomial_difference_check(x1, x2, _correlation_map(n))


def test_binomial_fails_for_unsymmetrized_correlation():
    """The identity genuinely breaks for the sesquilinear correlation."""
    rng = np.random.default_rng(6)
    n = 8
    x1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    residual = phase.binomial_difference_check(
        x1, x2, _correlation_map(n), require_symmetric=False)
    assert residual > 0.1


def test_stability_ratio_excludes_sign_flips():
    rng = np.random.default_rng(7)
    x = _random_real_head(4, rng)
    assert phase.stability_ratio(x, -x) is None
    y = _random_real_head(4, rng)
    ratio = phase.stability_ratio(x, y)
    assert ratio is not None and ratio > 0


def test_stability_ratio_prime_variant_denominator():
    rng = np.random.default_rng(8)
    x1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    x2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    r = phase.stability_ratio(x1, x2, phase.VARIANT_S_PRIME)
    num = np.linalg.norm(
        phase.intensity_measurements(x1, phase.VARIANT_S_PRIME)
        - phase.intensity_measurements(x2, phase.VARIANT_S_PRIME))
    den = 2 * np.linalg.norm(x1 - x2) * np.linalg.norm(x1 + x2)
    assert r == pytest.approx(num / den, rel=1e-12)


def test_stability_constant_estimate():
    est = phase.stability_constant_estimate(3, trials=200, seed=0)
    assert est.c_hat > 1e-8
    assert est.variant == phase.VARIANT_S
    again = phase.stability_constant_estimate(3, trials=200, seed=0)
    assert est.c_hat == again.c_hat
    payload = est.worst_pair_json()
    assert len(payload["x1_re"]) == 3
    assert payload["c_hat"] == est.c_hat
    # the recorded worst pair reproduces the reported minimum
    replay = phase.stability_ratio(
        np.asarray(est.worst_x1), np.asarray(est.worst_x2))
    assert replay == pytest.approx(est.c_hat, rel=1e-9)
    with pytest.raises(ValueError):
        phase.stability_constant_estimate(3, trials=0)


def test_stability_estimate_prime_variant_runs():
    est = phase.stability_constant_estimate(2, trials=100, seed=1,
                                            variant=phase.VARIANT_S_PRIME)
    assert est.c_hat > 0


# Reference for the sampling stage: the per-trial loop with its own draws
# and a scalar quotient from np.fft.fft and np.linalg.norm, sharing no code
# with the batched kernel of the phase module.

def _reference_extension(x, variant):
    n = x.size
    if variant == phase.VARIANT_S:
        padded = np.concatenate([x, np.zeros(n - 1, dtype=complex)])
        return np.concatenate([padded, np.conj(padded[:0:-1])])
    return np.concatenate([np.zeros(n, dtype=complex), x, np.conj(x[::-1]),
                           np.zeros(n - 1, dtype=complex)])


def _reference_intensity(x, variant):
    v = _reference_extension(x, variant)
    return np.abs(np.fft.fft(v) / math.sqrt(v.size)) ** 2


def _reference_ratio(x1, x2, variant):
    num = np.linalg.norm(_reference_intensity(x1, variant)
                         - _reference_intensity(x2, variant))
    if variant == phase.VARIANT_S:
        den = (np.linalg.norm(_reference_extension(x1 - x2, variant))
               * np.linalg.norm(_reference_extension(x1 + x2, variant)))
    else:
        den = 2.0 * np.linalg.norm(x1 - x2) * np.linalg.norm(x1 + x2)
    if den <= phase.DENOMINATOR_THRESHOLD:
        return None
    return float(num / den)


def _draw_pair(n, rng, variant):
    pair = []
    for _ in range(2):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if variant == phase.VARIANT_S:
            v[0] = v[0].real
        v /= np.linalg.norm(v)
        pair.append(v)
    return pair


def _reference_pattern_search(x1, x2, variant, rng):
    best = _reference_ratio(x1, x2, variant)
    n = x1.size
    step = 0.25
    for _ in range(phase.PATTERN_SEARCH_STEPS):
        d1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c1 = x1 + step * d1 / np.linalg.norm(d1)
        c2 = x2 + step * d2 / np.linalg.norm(d2)
        if variant == phase.VARIANT_S:
            c1[0] = c1[0].real
            c2[0] = c2[0].real
        scale = max(np.linalg.norm(c1), np.linalg.norm(c2))
        c1, c2 = c1 / scale, c2 / scale
        ratio = _reference_ratio(c1, c2, variant)
        if ratio is not None and ratio < best:
            x1, x2, best = c1, c2, ratio
        else:
            step *= 0.97
    return x1, x2, best


def _reference_estimate(n, trials, seed, variant, refine):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worst = []
    for _ in range(trials):
        x1, x2 = _draw_pair(n, rng, variant)
        ratio = _reference_ratio(x1, x2, variant)
        if ratio is None:
            continue
        worst.append((ratio, x1, x2))
        worst.sort(key=lambda t: t[0])
        del worst[5:]
    if not worst:
        raise RuntimeError("all sampled pairs were excluded")
    best_ratio, bx1, bx2 = worst[0]
    if refine:
        for ratio, x1, x2 in list(worst):
            rx1, rx2, r = _reference_pattern_search(x1.copy(), x2.copy(),
                                                    variant, rng)
            if r < best_ratio:
                best_ratio, bx1, bx2 = r, rx1, rx2
    return phase.StabilityEstimate(float(best_ratio), tuple(bx1.tolist()),
                                   tuple(bx2.tolist()), trials, seed, variant)


_ORACLE_CASES = [(variant, n) for variant in (phase.VARIANT_S,
                                              phase.VARIANT_S_PRIME)
                 for n in (1, 2, 3, 5)
                 if not (variant == phase.VARIANT_S and n == 1)]


@pytest.mark.parametrize("variant,n", _ORACLE_CASES)
@pytest.mark.parametrize("refine", [True, False])
def test_estimate_matches_per_trial_reference(monkeypatch, variant, n,
                                             refine):
    if not refine:
        # A pattern search that improves no pair leaves the sampling
        # stage's winner, which is checked on its own here.
        monkeypatch.setattr(phase, "_pattern_search", lambda pairs, *_: (
            pairs, np.full(len(pairs), np.inf)))
    for seed in (0, 1, 2):
        expected = _reference_estimate(n, 150, seed, variant, refine)
        assert phase.stability_constant_estimate(
            n, 150, seed, variant) == expected


@pytest.mark.parametrize("variant", [phase.VARIANT_S, phase.VARIANT_S_PRIME])
def test_estimate_matches_reference_across_chunks(monkeypatch, variant):
    # 200 trials in chunks of 64 (the last one short); with the raised
    # threshold part of every chunk is excluded, so the kept rows and the
    # merged five worst cross chunk boundaries.
    monkeypatch.setattr(phase, "SAMPLE_CHUNK", 64)
    for threshold in (phase.DENOMINATOR_THRESHOLD, 0.5):
        monkeypatch.setattr(phase, "DENOMINATOR_THRESHOLD", threshold)
        for seed in (3, 4):
            expected = _reference_estimate(3, 200, seed, variant, True)
            assert phase.stability_constant_estimate(
                3, 200, seed, variant) == expected
    monkeypatch.setattr(phase, "DENOMINATOR_THRESHOLD", 10.0)
    with pytest.raises(RuntimeError, match="excluded"):
        phase.stability_constant_estimate(3, 100, 0, variant)


@pytest.mark.parametrize("variant", [phase.VARIANT_S, phase.VARIANT_S_PRIME])
def test_pattern_search_matches_reference_per_pair(monkeypatch, variant):
    # A stack refined in lockstep equals its pairs refined one after
    # another from the same generator.  Under a threshold of 10 every
    # candidate is excluded, so no pair may move; the near pairs (small
    # denominators, large quotients) would often move if one were not.
    rng = np.random.default_rng(12)
    far = np.array([_draw_pair(3, rng, variant) for _ in range(3)])
    near = far.copy()
    near[:, 1] = far[:, 0] + 0.05 * rng.standard_normal((3, 3))
    near /= np.linalg.norm(near, axis=-1, keepdims=True)
    pairs = np.concatenate([far, near])
    got, best = phase._pattern_search(pairs, variant,
                                      np.random.default_rng(5))
    ref_rng = np.random.default_rng(5)
    for i, (x1, x2) in enumerate(pairs):
        r1, r2, r = _reference_pattern_search(x1.copy(), x2.copy(), variant,
                                              ref_rng)
        assert np.array_equal(got[i, 0], r1)
        assert np.array_equal(got[i, 1], r2)
        assert best[i] == r
    monkeypatch.setattr(phase, "DENOMINATOR_THRESHOLD", 10.0)
    got, _ = phase._pattern_search(pairs, variant, np.random.default_rng(5))
    assert np.array_equal(got, pairs)


def test_estimate_at_n_one():
    # under S every unit vector of length 1 is +-1: only sign flips
    with pytest.raises(ValueError, match="n >= 2"):
        phase.stability_constant_estimate(1, 50)
    est = phase.stability_constant_estimate(1, 50, seed=0,
                                            variant=phase.VARIANT_S_PRIME)
    assert est.c_hat == pytest.approx(0.408248290463863, rel=1e-12)
    assert len(est.worst_x1) == 1


@pytest.mark.parametrize("variant", [phase.VARIANT_S, phase.VARIANT_S_PRIME])
def test_quotient_kernel_rows_match_stability_ratio(variant):
    rng = np.random.default_rng(9)
    x1 = np.array([_random_real_head(4, rng) for _ in range(40)])
    x2 = np.array([_random_real_head(4, rng) for _ in range(40)])
    x2[7] = -x1[7]  # excluded: the sign ambiguity
    x2[8] = x1[8]
    num, den = phase._stability_quotients(x1, x2, variant)
    for i in range(40):
        single = phase.stability_ratio(x1[i], x2[i], variant)
        assert single == _reference_ratio(x1[i], x2[i], variant)
        if i in (7, 8):
            assert single is None and den[i] <= phase.DENOMINATOR_THRESHOLD
        else:
            assert single == float(num[i] / den[i])


def test_stability_ratio_rejects_bad_inputs():
    x = np.array([1j, 1.0, 0.5])
    with pytest.raises(ValueError, match="leading entry"):
        phase.stability_ratio(x, np.array([1.0, 0, 0]))
    # S' has no condition on the leading entry
    assert phase.stability_ratio(x, np.array([1.0, 0, 0]),
                                 phase.VARIANT_S_PRIME) > 0
    with pytest.raises(ValueError, match="unknown variant"):
        phase.stability_ratio(np.ones(3), np.zeros(3), variant="bogus")
    with pytest.raises(ValueError, match="unknown variant"):
        phase.stability_constant_estimate(3, 10, variant="bogus")

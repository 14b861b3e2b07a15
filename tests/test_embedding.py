import math

import numpy as np
import pytest

from bilinlab import embedding, operators
from bilinlab.embedding import StructuredSetSpec


def test_entropy_union_subspaces():
    assert embedding.entropy_union_subspaces(3, 1, 0.5) == pytest.approx(
        3 * math.log(6.0))
    val = embedding.entropy_union_subspaces(4, math.comb(16, 4), 0.1)
    assert val == pytest.approx(4 * math.log(30) + math.log(1820), rel=1e-12)
    assert val == pytest.approx(21.11, abs=0.01)
    finer = embedding.entropy_union_subspaces(4, math.comb(16, 4), 0.05)
    assert finer > val
    with pytest.raises(ValueError):
        embedding.entropy_union_subspaces(4, 0.5, 0.1)


def test_entropy_sparse_lowrank():
    val = embedding.entropy_sparse_lowrank(2, 2, 1, 256, 0.1)
    oracle = 18 * math.log(90.0) + 8 * math.log(256 * math.e / 4)
    assert val == pytest.approx(oracle, rel=1e-12)
    assert val == pytest.approx(122.2668, abs=1e-3)
    # doubling kappa doubles the dimension term only
    v2 = embedding.entropy_sparse_lowrank(2, 2, 2, 256, 0.1)
    assert v2 - val == pytest.approx(18 * math.log(90.0), rel=1e-12)


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


def test_jl_sparsity_requirement():
    assert embedding.jl_sparsity_requirement(1.0, 0.0) == 124
    assert embedding.jl_sparsity_requirement(1.0, 122.76) == 5034
    base = embedding.jl_sparsity_requirement(1.0, 10.0)
    assert embedding.jl_sparsity_requirement(1.0, 20.0) - base == \
        pytest.approx(400, abs=1)


def test_demodulator_measurement_bound():
    lam, h, n, delta = 2.0, 5.0, 256, 0.5
    want = math.ceil(64 * delta ** -2 * (lam + h)
                     * max((math.log(lam + h) * math.log(n)) ** 2,
                           lam + math.log(2)))
    assert embedding.demodulator_measurement_bound(lam, h, n, delta) == want
    assert embedding.demodulator_measurement_bound(3.0, h, n, delta) > want
    quad = embedding.demodulator_measurement_bound(lam, h, n, delta / 2)
    assert quad >= 4 * (want - 1)
    with pytest.raises(ValueError):
        embedding.demodulator_measurement_bound(lam, h, n, 0.0)


def test_epsilon_hat():
    assert embedding.epsilon_hat(0.35, 1, 1, 1, "general") == pytest.approx(
        0.05 * 0.999)
    gen = embedding.epsilon_hat(0.3, 1, 2, 1.5, "general")
    npres = embedding.epsilon_hat(0.3, 1, 2, 1.5, "norm_preserving")
    assert npres / gen == pytest.approx(7 / 4)
    assert gen < 0.3
    with pytest.raises(ValueError):
        embedding.epsilon_hat(0.3, 1, 1, 1, "loose")


def test_spec_validation():
    with pytest.raises(ValueError):
        StructuredSetSpec("mystery", 8)
    with pytest.raises(ValueError):
        StructuredSetSpec("sparse_vectors", 8, s=9)
    with pytest.raises(ValueError):
        StructuredSetSpec("sparse_lowrank", 8, 8, s=2, f=2, kappa=3)
    StructuredSetSpec("sparse_rank_one", 8, 8, s=2, f=3)


def test_sample_structured_shapes():
    rng = np.random.default_rng(0)
    vec = embedding.sample_structured(
        StructuredSetSpec("sparse_vectors", 16, s=3), rng)
    assert np.count_nonzero(vec.array) == 3
    assert np.linalg.norm(vec.array) == pytest.approx(1.0)

    r1 = embedding.sample_structured(
        StructuredSetSpec("sparse_rank_one", 10, 10, s=2, f=3), rng)
    assert np.linalg.matrix_rank(r1.array) == 1
    assert np.count_nonzero(np.linalg.norm(r1.array, axis=1)) == 2
    assert np.count_nonzero(np.linalg.norm(r1.array, axis=0)) == 3
    assert np.allclose(r1.array, np.outer(r1.x, r1.y), atol=1e-12)

    diff = embedding.sample_structured(
        StructuredSetSpec("sparse_rank_one_diff", 10, 10, s=2, f=2), rng)
    assert np.linalg.matrix_rank(diff.array) <= 2
    assert np.count_nonzero(np.linalg.norm(diff.array, axis=1)) <= 4
    assert np.linalg.norm(diff.array) == pytest.approx(1.0)

    low = embedding.sample_structured(
        StructuredSetSpec("sparse_lowrank", 12, 12, s=3, f=3, kappa=2), rng)
    assert np.linalg.matrix_rank(low.array) <= 2
    assert np.linalg.norm(low.array) == pytest.approx(1.0)

    quad = embedding.sample_structured(
        StructuredSetSpec("symmetric_quadratic", 8, s=2), rng)
    assert np.linalg.matrix_rank(quad.array) <= 2


def test_verify_embedding_identity():
    n = 12
    phi = operators.identity_operator(n)
    bmap = operators.convolution_lift(n)
    spec = StructuredSetSpec("sparse_rank_one", n, n, s=2, f=2)
    report = embedding.verify_embedding(phi, bmap, spec, trials=50, seed=0)
    assert report.delta_hat <= 1e-10


def test_verify_embedding_unitary_demodulator():
    n = 16
    phi = operators.partial_circulant_demodulator(n, n, seed_eta=3,
                                                  omega=list(range(n)))
    bmap = operators.convolution_lift(n)
    spec = StructuredSetSpec("sparse_rank_one", n, n, s=2, f=2)
    report = embedding.verify_embedding(phi, bmap, spec, trials=50, seed=1)
    assert report.delta_hat <= 1e-10


def test_verify_embedding_determinism_and_mismatch():
    n = 10
    phi = operators.gaussian_operator(8, n, seed=5)
    bmap = operators.convolution_lift(n)
    spec = StructuredSetSpec("sparse_rank_one", n, n, s=2, f=2)
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
        StructuredSetSpec("sparse_rank_one", n, n, s=2, f=2),
        trials=5, seed=0)
    rows = list(report.to_csv_rows())
    assert rows[0] == "trial_id,ratio,support_x,support_y"
    assert len(rows) == 6
    summary = report.summary()
    assert summary["trials"] == 5
    assert summary["delta_hat_is_lower_estimate"]
    assert summary["operator"]["ensemble"] == "identity"

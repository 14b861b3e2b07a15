import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilinlab import freiman
from bilinlab.freiman import IndexSet, RemapResult


def test_index_set():
    a = IndexSet((10, -3, 0))
    assert a.elements == (-3, 0, 10)
    assert a.diameter() == 13
    with pytest.raises(ValueError):
        IndexSet((1, 1, 2))


def test_isomorphism_examples():
    elems = (0, 1, 10)
    assert freiman.is_freiman_isomorphism(elems, {0: 0, 1: 1, 10: 3})
    assert not freiman.is_freiman_isomorphism(elems, {0: 0, 1: 1, 10: 2})
    # non-injective maps are never isomorphisms
    assert not freiman.is_freiman_isomorphism((0, 1, 2), {0: 0, 1: 1, 2: 1})


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(min_value=-20, max_value=20), min_size=2,
               max_size=5),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=-10, max_value=10))
def test_affine_maps_are_isomorphisms(elems, p, q):
    phi = {e: p * e + q for e in elems}
    assert freiman.is_freiman_isomorphism(tuple(elems), phi)
    # and composing a found isomorphism with an affine map stays one
    comp = {e: 2 * phi[e] - 3 for e in elems}
    assert freiman.is_freiman_isomorphism(tuple(elems), comp)


def test_grynkiewicz_bound_beyond_the_float_range():
    assert math.isfinite(freiman.grynkiewicz_bound(88))
    for m in (89, 100):  # inf, then OverflowError in the arithmetic
        with pytest.raises(ValueError, match=f"m = {m} "):
            freiman.grynkiewicz_bound(m)


def test_grynkiewicz_bound():
    assert freiman.grynkiewicz_bound(3, 1) == 2.0
    assert freiman.grynkiewicz_bound(4, 2) == 25.0
    assert freiman.grynkiewicz_bound(4) == 328.0  # d defaults to m - 1
    assert [freiman.dimension_bound(m) for m in (1, 2, 3, 6)] == [1, 1, 2, 5]
    vals = [freiman.grynkiewicz_bound(m) for m in range(3, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_min_diameter_frozen_example():
    result = freiman.min_diameter_isomorphic_image((0, 1, 10))
    assert result.diameter == 3
    assert result.verified_isomorphism
    assert result.search_exhaustive
    assert sorted(result.image) in ([0, 1, 3], [0, 2, 3])
    assert freiman.is_freiman_isomorphism((0, 1, 10), result.mapping())


def test_min_diameter_already_minimal():
    result = freiman.min_diameter_isomorphic_image((0, 1, 2))
    assert result.diameter == 2
    assert result.image == (0, 1, 2)
    single = freiman.min_diameter_isomorphic_image((5,))
    assert single.diameter == 0


def test_min_diameter_respects_bounds():
    rng = np.random.default_rng(0)
    for _ in range(25):
        m = int(rng.integers(2, 6))
        elems = tuple(sorted(rng.choice(30, size=m, replace=False).tolist()))
        result = freiman.min_diameter_isomorphic_image(elems, budget=200000)
        a = IndexSet(elems)
        assert result.diameter <= a.diameter()
        assert result.diameter <= freiman.grynkiewicz_bound(
            m, freiman.dimension_bound(m))
        if result.verified_isomorphism:
            assert freiman.is_freiman_isomorphism(elems, result.mapping())


def test_min_diameter_budget_exhaustion():
    result = freiman.min_diameter_isomorphic_image((0, 1, 10, 100), budget=5)
    assert not result.search_exhaustive
    assert result.image == result.source  # identity fallback
    assert result.verified_isomorphism


def _enumerated_min_diameter_image(elems, budget):
    """Reference search: every permutation of every candidate image, in
    order, each compared by its full sum pattern."""
    m = len(elems)
    if m == 1:
        return RemapResult(elems, (0,), 0, True, True)

    def pattern(values):
        return set(map(frozenset, freiman._sum_pattern(values).values()))

    src = pattern(elems)
    diam_a = elems[-1] - elems[0]
    checks = 0
    for diameter in range(m - 1, diam_a):
        for interior in itertools.combinations(range(1, diameter), m - 2):
            image_set = (0,) + interior + (diameter,)
            gaps = tuple(b - c for b, c in zip(image_set[1:], image_set))
            if gaps[::-1] < gaps:
                continue
            for perm in itertools.permutations(image_set):
                checks += 1
                if checks > budget:
                    return RemapResult(elems, elems, diam_a, True, False)
                if pattern(perm) == src:
                    verified = freiman.is_freiman_isomorphism(
                        elems, dict(zip(elems, perm)))
                    return RemapResult(elems, perm, diameter, verified, True)
    shifted = tuple(e - elems[0] for e in elems)
    return RemapResult(elems, shifted, diam_a, True, True)


def test_min_diameter_matches_enumeration():
    # Budgets 7 and 100 run out on many of these sets, so the identity
    # fallback must fire at the same candidate as under enumeration.
    exhausted = 0
    for m in range(1, 6):
        for elems in itertools.combinations(range(8), m):
            for budget in (10 ** 6, 7, 100):
                expected = _enumerated_min_diameter_image(elems, budget)
                assert freiman.min_diameter_isomorphic_image(
                    elems, budget) == expected, (elems, budget)
                exhausted += not expected.search_exhaustive
    assert exhausted > 0


def test_min_diameter_six_elements():
    result = freiman.min_diameter_isomorphic_image((0, 1, 5, 13, 30, 31))
    assert result.diameter == 13
    assert result.image == (0, 1, 11, 13, 4, 5)
    assert result.verified_isomorphism
    assert result.search_exhaustive


def test_remap_result_serialization():
    result = freiman.min_diameter_isomorphic_image((0, 1, 10))
    payload = result.to_json()
    assert payload["source"] == [0, 1, 10]
    assert payload["diameter"] == 3
    assert payload["verified_isomorphism"] is True


def test_norm_check_identity_remap():
    ident = RemapResult((0, 1, 4), (0, 1, 4), 4, True, True)
    x = ((0, 1), (1.0, -2.0))
    y = ((1, 4), (0.5j, 3.0))
    assert freiman.remapped_convolution_norm_check(x, y, ident) == 0.0


def test_norm_check_compression():
    rng = np.random.default_rng(1)
    result = freiman.min_diameter_isomorphic_image((0, 1, 10))
    for _ in range(50):
        vx = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        vy = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = ((0, 1, 10), tuple(vx))
        y = ((0, 10), tuple(vy))
        residual = freiman.remapped_convolution_norm_check(x, y, result)
        scale = np.linalg.norm(vx) * np.linalg.norm(vy)
        assert residual <= 1e-10 * scale


def test_norm_check_detects_bad_remap():
    # {0,1,10} -> {0,1,2} merges the sums 0+2 and 1+1; with all-ones
    # values the collision changes the convolution norm.
    bad = RemapResult((0, 1, 10), (0, 1, 2), 2, True, True)
    x = ((0, 1, 10), (1.0, 1.0, 1.0))
    assert freiman.remapped_convolution_norm_check(x, x, bad) > 0.1


def test_norm_check_preconditions():
    unverified = RemapResult((0, 1), (0, 1), 1, False, True)
    with pytest.raises(ValueError):
        freiman.remapped_convolution_norm_check(
            ((0,), (1.0,)), ((0,), (1.0,)), unverified)
    ident = RemapResult((0, 1), (0, 1), 1, True, True)
    with pytest.raises(ValueError):
        freiman.remapped_convolution_norm_check(
            ((0, 2), (1.0, 1.0)), ((0,), (1.0,)), ident)

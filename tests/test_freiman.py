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


def _image_sets(elems):
    """Candidate images in search order: every set with minimum 0 and a
    diameter below the source's, kept when its first gap is at most its
    last (reflection symmetry)."""
    m = len(elems)
    for diameter in range(m - 1, elems[-1] - elems[0]):
        for interior in itertools.combinations(range(1, diameter), m - 2):
            image_set = (0,) + interior + (diameter,)
            gaps = tuple(b - c for b, c in zip(image_set[1:], image_set))
            if gaps[::-1] >= gaps:
                yield diameter, image_set


def _pattern(values):
    return set(map(frozenset, freiman._sum_pattern(values).values()))


def _enumerated_min_diameter_image(elems):
    """Reference search: every permutation of every candidate image, in
    order, each compared by its full sum pattern."""
    m = len(elems)
    if m == 1:
        return RemapResult(elems, (0,), 0, True, True)
    src = _pattern(elems)
    for diameter, image_set in _image_sets(elems):
        for perm in itertools.permutations(image_set):
            if _pattern(perm) == src:
                verified = freiman.is_freiman_isomorphism(
                    elems, dict(zip(elems, perm)))
                return RemapResult(elems, perm, diameter, verified, True)
    shifted = tuple(e - elems[0] for e in elems)
    return RemapResult(elems, shifted, elems[-1] - elems[0], True, True)


def _enumerated_cost(elems):
    """Index pairs the whole search examines, counted by brute force:
    m(m+1)/2 per candidate image set, and for a set with the source's
    sum-class sizes k per prefix of length k of its orderings whose parent
    prefix keeps the sum pattern of the source's first elements, up to the
    first full match in permutation order."""
    m = len(elems)
    sizes = sorted(map(len, _pattern(elems)))
    cost = 0
    for _, image_set in _image_sets(elems):
        cost += m * (m + 1) // 2
        if sorted(map(len, _pattern(image_set))) != sizes:
            continue
        orders = list(itertools.permutations(range(m)))
        match = next((p for p in orders
                      if _pattern([image_set[i] for i in p])
                      == _pattern(elems)), None)
        for k in range(1, m + 1):
            for prefix in itertools.permutations(range(m), k):
                parent = [image_set[i] for i in prefix[:-1]]
                cost += k * ((match is None or prefix <= match[:k])
                             and _pattern(parent) == _pattern(elems[:k - 1]))
        if match is not None:
            break
    return cost


def test_min_diameter_matches_enumeration():
    for m in range(1, 6):
        for elems in itertools.combinations(range(8), m):
            assert freiman.min_diameter_isomorphic_image(elems) == \
                _enumerated_min_diameter_image(elems), elems


@pytest.mark.parametrize("elems", [(0, 1, 10), (0, 1, 5, 13), (0, 2, 3, 7),
                                   (0, 1, 3, 4, 9)])
def test_min_diameter_budget_counts_pairs(elems):
    # The search examines exactly k index pairs: budget k - 1 runs out,
    # k finishes.
    k = _enumerated_cost(elems)
    full = freiman.min_diameter_isomorphic_image(elems, budget=k)
    assert full == _enumerated_min_diameter_image(elems)
    assert freiman.min_diameter_isomorphic_image(elems, budget=k - 1) == \
        RemapResult(elems, elems, elems[-1] - elems[0], True, False)


def test_min_diameter_budget_charges_class_tests(monkeypatch):
    # Each candidate's class-size test is charged its m(m+1)/2 pairs, so a
    # budget bounds the O(m^2) tests a large set runs before it gives up.
    calls = []
    class_sizes = freiman._class_sizes
    monkeypatch.setattr(freiman, "_class_sizes",
                        lambda values: calls.append(1) or class_sizes(values))
    squares = tuple(i * i for i in range(40))
    result = freiman.min_diameter_isomorphic_image(squares, budget=10 ** 5)
    assert not result.search_exhaustive
    assert len(calls) == 1 + 10 ** 5 // (40 * 41 // 2)  # the source's too


@pytest.mark.parametrize("elems,image", [
    ((0, 1, 3, 7, 12, 20, 30), (0, 1, 4, 10, 18, 23, 25)),
    ((0, 2, 3, 9, 10, 16, 30), (14, 0, 1, 4, 5, 8, 16)),
])
def test_min_diameter_seven_elements(elems, image):
    # At the default budget; these ran out when the budget counted the
    # orderings a cut rules out.
    result = freiman.min_diameter_isomorphic_image(elems)
    assert result.image == image
    assert result.diameter == max(image) - min(image)
    assert result.verified_isomorphism
    assert result.search_exhaustive


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

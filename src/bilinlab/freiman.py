"""Support compression through Freiman isomorphisms of order 2.

An order-2 Freiman isomorphism is a bijection of integer index sets that
preserves the pattern of pairwise-sum coincidences in both directions; it
leaves convolution norms unchanged, which is what lets large convolution
supports be compressed into a small ambient dimension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .signals import sparse_convolve


@dataclass(frozen=True)
class IndexSet:
    """Sorted distinct integers (possibly negative)."""

    elements: tuple

    def __post_init__(self):
        elems = tuple(sorted(int(a) for a in self.elements))
        if len(set(elems)) != len(elems):
            raise ValueError("elements must be distinct")
        object.__setattr__(self, "elements", elems)

    def diameter(self) -> int:
        return self.elements[-1] - self.elements[0] if self.elements else 0


def _elements(a) -> tuple:
    if isinstance(a, IndexSet):
        return a.elements
    return IndexSet(tuple(a)).elements


def _sum_pattern(values):
    """Map pair-sum -> set of (unordered) index pairs attaining it."""
    pattern: dict = {}
    for i in range(len(values)):
        for j in range(i, len(values)):
            pattern.setdefault(values[i] + values[j], set()).add((i, j))
    return pattern


def is_freiman_isomorphism(a, phi: dict) -> bool:
    """Sum-coincidence patterns match in both directions."""
    elems = _elements(a)
    if any(e not in phi for e in elems):
        raise ValueError("map must be defined on every element")
    images = [phi[e] for e in elems]
    if len(set(images)) != len(images):
        return False
    src = _sum_pattern(elems)
    img = _sum_pattern(images)
    return set(map(frozenset, src.values())) == set(map(frozenset, img.values()))


def dimension_bound(m: int) -> int:
    """Freiman dimension bound valid for every m-set: m-1 (at least 1),
    attained by Sidon sets; exact dimension computation is out of scope."""
    return max(1, m - 1)


def grynkiewicz_bound(m: int, d: int | None = None) -> float:
    """Diameter bound ``d!^2 (3/2)^(d-1) 2^(m-2) + (3^(d-1)-1)/2`` for an
    m-set of Freiman dimension at most d (default ``dimension_bound(m)``).
    Raises ``ValueError`` when the bound exceeds the float range (from
    m = 89 at the default d)."""
    if d is None:
        d = dimension_bound(m)
    try:
        bound = (math.factorial(d) ** 2 * 1.5 ** (d - 1) * 2.0 ** (m - 2)
                 + (3.0 ** (d - 1) - 1.0) / 2.0)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ValueError(f"the Grynkiewicz bound for m = {m} exceeds the "
                         "float range")
    return bound


@dataclass(frozen=True)
class RemapResult:
    """A found isomorphic image with search metadata."""

    source: tuple
    image: tuple
    diameter: int
    verified_isomorphism: bool
    search_exhaustive: bool

    def mapping(self) -> dict:
        return dict(zip(self.source, self.image))

    def to_json(self) -> dict:
        return {
            "source": list(self.source),
            "image": list(self.image),
            "diameter": self.diameter,
            "verified_isomorphism": self.verified_isomorphism,
            "search_exhaustive": self.search_exhaustive,
        }


def _class_sizes(values) -> list:
    """Sorted sizes of the sum-coincidence classes; order-invariant."""
    return sorted(map(len, _sum_pattern(values).values()))


def _matching_orders(elems, image_set):
    """Depth-first walk over the orderings of ``image_set`` as images of
    ``elems``, in ``itertools.permutations`` order.

    Position k takes each unused value in turn and adds the pairs (i, k),
    i <= k, to a two-way map between source and image pair-sums.  A sum
    already paired with a different partner means the two sum patterns
    differ for every completion, so the subtree is cut.  Yields
    ``(count, images)``: ``count`` candidate maps ruled out by a cut with
    ``images`` None, or 1 with the images of a full match.
    """
    m = len(elems)
    images = [0] * m
    used = [False] * m
    src_to_img: dict = {}
    img_to_src: dict = {}

    def extend(k):
        for slot, value in enumerate(image_set):
            if used[slot]:
                continue
            images[k] = value
            added = []
            consistent = True
            for i in range(k + 1):
                s, t = elems[i] + elems[k], images[i] + value
                partner = src_to_img.get(s)
                if partner is None and t not in img_to_src:
                    src_to_img[s] = t
                    img_to_src[t] = s
                    added.append(s)
                elif partner != t:
                    consistent = False
                    break
            if not consistent:
                yield math.factorial(m - k - 1), None
            elif k == m - 1:
                yield 1, tuple(images)
            else:
                used[slot] = True
                yield from extend(k + 1)
                used[slot] = False
            for s in added:
                del img_to_src[src_to_img.pop(s)]

    return extend(0)


def min_diameter_isomorphic_image(a, budget: int = 10 ** 6) -> RemapResult:
    """Smallest-diameter Freiman-isomorphic image found by backtracking.

    Candidate images are normalized to minimum 0 and first gap at most
    the last gap (reflection symmetry); diameters are scanned in
    increasing order, so the first hit is minimal when the search stayed
    within budget.  An image set whose sorted sum-class sizes differ from
    the source's cannot match in any order and is skipped whole.  The
    others are searched depth first, one source position at a time, and
    a partial map is cut at the first pair-sum coincidence it breaks or
    creates; the first match is the first matching permutation in
    ``itertools.permutations`` order.

    ``budget`` bounds the number of candidate maps (orderings of an image
    set) examined: the match found counts one, a skipped image set counts
    all m! of its orderings and a cut subtree counts every completion it
    rules out.  Once the count exceeds ``budget`` the identity image is
    returned with ``search_exhaustive`` False, so a result is always
    returned.  A negative ``budget`` raises ``ValueError``.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    elems = _elements(a)
    m = len(elems)
    if m == 0:
        raise ValueError("empty set")
    if m == 1:
        return RemapResult(elems, (0,), 0, True, True)
    src_classes = _class_sizes(elems)
    diam_a = elems[-1] - elems[0]
    checks = 0
    exhausted_below = True
    for diameter in range(m - 1, diam_a):
        for interior in itertools.combinations(range(1, diameter), m - 2):
            image_set = (0,) + interior + (diameter,)
            # Reflection pruning: keep the lexicographically smaller of
            # the gap sequence and its reverse.
            gaps = tuple(b - c for b, c in zip(image_set[1:], image_set))
            if gaps[::-1] < gaps:
                continue
            if _class_sizes(image_set) != src_classes:
                steps = [(math.factorial(m), None)]
            else:
                steps = _matching_orders(elems, image_set)
            for count, images in steps:
                checks += count
                if checks > budget:
                    identity = RemapResult(elems, elems, diam_a, True, False)
                    return identity
                if images is not None:
                    phi = dict(zip(elems, images))
                    verified = is_freiman_isomorphism(elems, phi)
                    return RemapResult(elems, images, diameter,
                                       verified, exhausted_below)
    # No strictly smaller image: the set itself (translated to start at 0)
    # is minimal.
    shifted = tuple(e - elems[0] for e in elems)
    return RemapResult(elems, shifted, diam_a, True, exhausted_below)


def _conv_norm(support, values, support2, values2) -> float:
    """Norm of the convolution of two sparse vectors given on supports."""
    _, acc = sparse_convolve(support, values, support2, values2)
    return float(np.linalg.norm(acc))


def remapped_convolution_norm_check(x, y, result: RemapResult) -> float:
    """``| ||x*y|| - ||x~*y~|| |`` where the supports are remapped by result.

    ``x`` and ``y`` are (support, values) pairs with supports contained in
    the verified source set of ``result``.
    """
    sx, vx = x
    sy, vy = y
    if not result.verified_isomorphism:
        raise ValueError("remap is not a verified isomorphism")
    source = set(result.source)
    if not (set(sx) <= source and set(sy) <= source):
        raise ValueError("supports must be contained in the remapped set")
    phi = result.mapping()
    norm_a = _conv_norm(tuple(sx), tuple(vx), tuple(sy), tuple(vy))
    norm_b = _conv_norm(tuple(phi[i] for i in sx), tuple(vx),
                        tuple(phi[j] for j in sy), tuple(vy))
    return abs(norm_a - norm_b)

"""Symmetrization, Fourier intensity measurements and stability checks.

Phase retrieval from Fourier magnitudes becomes a question about the
symmetric convolution once the signal is extended conjugate-symmetrically:
the intensity map then satisfies a binomial identity
``A(x1) - A(x2) = B(x1 - x2, x1 + x2)`` and is stable up to a global sign
with a constant tied to the convolution norm constants of the rnmp module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rnmp  # noqa: F401  (re-exported for the cross-check helper)
from .operators import BilinearMap

VARIANT_S = "S_padded_4n-3"
VARIANT_S_PRIME = "S_prime_4n-1"

DENOMINATOR_THRESHOLD = 1e-8
PATTERN_SEARCH_STEPS = 200


@dataclass(frozen=True)
class SymmetrizedVector:
    """Conjugate-symmetric extension of a length-n vector."""

    original_dim: int
    data: tuple
    variant: str

    def dense(self) -> np.ndarray:
        return np.asarray(self.data, dtype=complex)

    def norm(self) -> float:
        return float(np.linalg.norm(self.dense()))


def symmetrize(x) -> SymmetrizedVector:
    """``S(x) = (x_0 .. x_{n-1}, conj(x_{n-1}) .. conj(x_1))``, length 2n-1.

    Requires a real leading entry; without it the extension cannot be
    conjugate symmetric.
    """
    x = np.asarray(x, dtype=complex).ravel()
    nrm = np.linalg.norm(x)
    if abs(x[0].imag) > 1e-12 * max(nrm, 1e-300):
        raise ValueError("leading entry must be real for symmetrization")
    data = np.concatenate([x, np.conj(x[:0:-1])])
    return SymmetrizedVector(x.size, tuple(data.tolist()), "S_2n-1")


def zero_pad_symmetrize(x) -> SymmetrizedVector:
    """Zero pad n -> 2n-1, then symmetrize: output length 4n-3."""
    x = np.asarray(x, dtype=complex).ravel()
    padded = np.concatenate([x, np.zeros(x.size - 1, dtype=complex)])
    inner = symmetrize(padded)
    return SymmetrizedVector(x.size, inner.data, VARIANT_S)


def symmetrize_prime(x) -> SymmetrizedVector:
    """``S'(x) = (0^n, x_0 .. x_{n-1}, conj(x_{n-1}) .. conj(x_0), 0^{n-1})``.

    Length 4n-1; no restriction on x (the point of the construction), and
    ``||S'(x)||^2 = 2 ||x||^2`` exactly since the two copies are disjoint.
    """
    x = np.asarray(x, dtype=complex).ravel()
    n = x.size
    data = np.concatenate([np.zeros(n, dtype=complex), x, np.conj(x[::-1]),
                           np.zeros(n - 1, dtype=complex)])
    return SymmetrizedVector(n, tuple(data.tolist()), VARIANT_S_PRIME)


def _symmetrized_dense(x, variant: str) -> np.ndarray:
    if variant == VARIANT_S:
        return zero_pad_symmetrize(x).dense()
    if variant == VARIANT_S_PRIME:
        return symmetrize_prime(x).dense()
    raise ValueError(f"unknown variant {variant!r}")


def intensity_measurements(x, variant: str = VARIANT_S) -> np.ndarray:
    """Squared Fourier magnitudes of the symmetrized extension.

    Unitary DFT of the symmetrized dimension; output real, invariant
    under the global sign flip x -> -x.
    """
    v = _symmetrized_dense(x, variant)
    spectrum = np.fft.fft(v) / math.sqrt(v.size)
    return np.abs(spectrum) ** 2


def binomial_difference_check(x1, x2, b: BilinearMap,
                              require_symmetric: bool = True) -> float:
    """Residual of ``B(x1,x1) - B(x2,x2) = B(x1-x2, x1+x2)``.

    Symmetry of B is probe-checked first with deterministic random pairs;
    an asymmetric map raises unless ``require_symmetric`` is lifted (used
    to demonstrate that the identity genuinely fails for the sesquilinear
    correlation without symmetrization).  The residual is scaled by
    ``max(||lhs||, ||x1|| ||x2||, 1e-300)``.
    """
    x1 = np.asarray(x1, dtype=complex).ravel()
    x2 = np.asarray(x2, dtype=complex).ravel()
    probe_rng = np.random.default_rng(np.random.SeedSequence(1234))
    r1 = probe_rng.standard_normal(b.n1) + 1j * probe_rng.standard_normal(b.n1)
    r2 = probe_rng.standard_normal(b.n2) + 1j * probe_rng.standard_normal(b.n2)
    asym = np.linalg.norm(b.apply_pair(r1, r2) - b.apply_pair(r2, r1))
    if require_symmetric and asym > 1e-8 * (np.linalg.norm(r1)
                                            * np.linalg.norm(r2)):
        raise ValueError("bilinear map is not symmetric")
    lhs = b.apply_pair(x1, x1) - b.apply_pair(x2, x2)
    rhs = b.apply_pair(x1 - x2, x1 + x2)
    scale = max(np.linalg.norm(lhs),
                np.linalg.norm(x1) * np.linalg.norm(x2), 1e-300)
    return float(np.linalg.norm(lhs - rhs) / scale)


def stability_ratio(x1, x2, variant: str = VARIANT_S) -> float | None:
    """Stability quotient for one pair; None when the pair is excluded.

    Numerator: distance of the intensity measurement vectors.  The
    denominator is ``||S(x1-x2)|| ||S(x1+x2)||`` for the padded variant
    and ``2 ||x1-x2|| ||x1+x2||`` for the S' variant; pairs with
    denominator below 1e-8 (x2 near +-x1, the declared sign ambiguity)
    are excluded.
    """
    x1 = np.asarray(x1, dtype=complex).ravel()
    x2 = np.asarray(x2, dtype=complex).ravel()
    num = np.linalg.norm(intensity_measurements(x1, variant)
                         - intensity_measurements(x2, variant))
    if variant == VARIANT_S:
        den = (np.linalg.norm(_symmetrized_dense(x1 - x2, variant))
               * np.linalg.norm(_symmetrized_dense(x1 + x2, variant)))
    else:
        den = 2.0 * np.linalg.norm(x1 - x2) * np.linalg.norm(x1 + x2)
    if den <= DENOMINATOR_THRESHOLD:
        return None
    return float(num / den)


@dataclass(frozen=True)
class StabilityEstimate:
    c_hat: float
    worst_x1: tuple
    worst_x2: tuple
    trials: int
    refined: bool
    seed: int
    variant: str

    def worst_pair_json(self) -> dict:
        x1 = np.asarray(self.worst_x1)
        x2 = np.asarray(self.worst_x2)
        return {
            "c_hat": self.c_hat,
            "variant": self.variant,
            "seed": self.seed,
            "x1_re": list(np.round(x1.real, 15)),
            "x1_im": list(np.round(x1.imag, 15)),
            "x2_re": list(np.round(x2.real, 15)),
            "x2_im": list(np.round(x2.imag, 15)),
        }


def _draw_pair(n: int, rng: np.random.Generator, variant: str):
    pair = []
    for _ in range(2):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if variant == VARIANT_S:
            v[0] = v[0].real
        v /= np.linalg.norm(v)
        pair.append(v)
    return pair


def _pattern_search(x1, x2, variant: str, rng: np.random.Generator):
    """Gradient-free local refinement of the stability quotient."""
    best = stability_ratio(x1, x2, variant)
    n = x1.size
    step = 0.25
    for _ in range(PATTERN_SEARCH_STEPS):
        d1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c1 = x1 + step * d1 / np.linalg.norm(d1)
        c2 = x2 + step * d2 / np.linalg.norm(d2)
        if variant == VARIANT_S:
            c1[0] = c1[0].real
            c2[0] = c2[0].real
        scale = max(np.linalg.norm(c1), np.linalg.norm(c2))
        c1, c2 = c1 / scale, c2 / scale
        ratio = stability_ratio(c1, c2, variant)
        if ratio is not None and ratio < best:
            x1, x2, best = c1, c2, ratio
        else:
            step *= 0.97
    return x1, x2, best


def stability_constant_estimate(n: int, trials: int, seed: int = 0,
                                variant: str = VARIANT_S,
                                refine: bool = True) -> StabilityEstimate:
    """Empirical minimum of the stability quotient over sampled pairs.

    Pure sampling overestimates the constant, so the worst sampled pairs
    are refined by pattern search when ``refine`` is set.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if trials <= 0:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worst = []  # (ratio, x1, x2), kept small
    for _ in range(trials):
        x1, x2 = _draw_pair(n, rng, variant)
        ratio = stability_ratio(x1, x2, variant)
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
            rx1, rx2, r = _pattern_search(x1.copy(), x2.copy(), variant, rng)
            if r < best_ratio:
                best_ratio, bx1, bx2 = r, rx1, rx2
    return StabilityEstimate(float(best_ratio), tuple(bx1.tolist()),
                             tuple(bx2.tolist()), trials, refine, seed,
                             variant)

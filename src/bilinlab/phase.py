"""Symmetrization, Fourier intensity measurements and stability checks.

Phase retrieval from Fourier magnitudes becomes a question about the
symmetric convolution once the signal is extended conjugate-symmetrically
(``zero_pad_symmetrize`` returns the extension as a complex array):
the intensity map then satisfies a binomial identity
``A(x1) - A(x2) = B(x1 - x2, x1 + x2)`` and is stable up to a global sign
with a constant tied to the convolution norm constants of the rnmp module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rnmp
from .operators import BilinearMap
from .signals import complex_normals, row_norms

VARIANT_S = "S_padded_4n-3"
VARIANT_S_PRIME = "S_prime_4n-1"

DENOMINATOR_THRESHOLD = 1e-8


def _symmetrized_rows(x: np.ndarray, variant: str) -> np.ndarray:
    """Extension of each row of a (T, n) stack.  ``VARIANT_S`` zero pads x
    to p of length 2n-1 and returns ``S(p) = (p_0 .. p_{2n-2},
    conj(p_{2n-2}) .. conj(p_1))``, length 4n-3; x_0 must be real, or S(p)
    is not conjugate symmetric.  ``VARIANT_S_PRIME`` returns ``S'(x) =
    (0^n, x_0 .. x_{n-1}, conj(x_{n-1}) .. conj(x_0), 0^{n-1})``, length
    4n-1, for any x, with ``||S'(x)||^2 = 2 ||x||^2`` exactly."""
    zeros = np.zeros(x.shape, dtype=complex)
    if variant == VARIANT_S:
        if np.any(np.abs(x[:, 0].imag)
                  > 1e-12 * np.maximum(row_norms(x), 1e-300)):
            raise ValueError("leading entry must be real for symmetrization")
        p = np.concatenate([x, zeros[:, 1:]], axis=1)
        return np.concatenate([p, np.conj(p[:, :0:-1])], axis=1)
    if variant == VARIANT_S_PRIME:
        return np.concatenate([zeros, x, np.conj(x[:, ::-1]), zeros[:, 1:]],
                              axis=1)
    raise ValueError(f"unknown variant {variant!r}")


def _as_row(x) -> np.ndarray:
    return np.asarray(x, dtype=complex).reshape(1, -1)


def zero_pad_symmetrize(x) -> np.ndarray:
    """Zero pad n -> 2n-1, then symmetrize: output length 4n-3."""
    return _symmetrized_rows(_as_row(x), VARIANT_S)[0]


def _intensity_rows(v: np.ndarray) -> np.ndarray:
    """Squared unitary DFT magnitudes of each symmetrized row."""
    return np.abs(np.fft.fft(v, axis=-1) / math.sqrt(v.shape[1])) ** 2


def intensity_measurements(x, variant: str = VARIANT_S) -> np.ndarray:
    """Squared Fourier magnitudes of the symmetrized extension.

    Unitary DFT of the symmetrized dimension; output real, invariant
    under the global sign flip x -> -x.
    """
    return _intensity_rows(_symmetrized_rows(_as_row(x), variant))[0]


def binomial_difference_check(x1, x2, b: BilinearMap) -> float:
    """Residual of ``B(x1,x1) - B(x2,x2) = B(x1-x2, x1+x2)``.

    Symmetry of B is probe-checked first with deterministic random pairs,
    and an asymmetric map raises.  The residual is scaled by
    ``max(||lhs||, ||x1|| ||x2||, 1e-300)``.
    """
    x1 = np.asarray(x1, dtype=complex).ravel()
    x2 = np.asarray(x2, dtype=complex).ravel()
    probe_rng = np.random.default_rng(1234)
    r1 = complex_normals(probe_rng, 1, b.n1)[0]
    r2 = complex_normals(probe_rng, 1, b.n2)[0]
    asym = np.linalg.norm(b.apply_pair(r1, r2) - b.apply_pair(r2, r1))
    if asym > 1e-8 * (np.linalg.norm(r1) * np.linalg.norm(r2)):
        raise ValueError("bilinear map is not symmetric")
    lhs = b.apply_pair(x1, x1) - b.apply_pair(x2, x2)
    rhs = b.apply_pair(x1 - x2, x1 + x2)
    scale = max(np.linalg.norm(lhs),
                np.linalg.norm(x1) * np.linalg.norm(x2), 1e-300)
    return float(np.linalg.norm(lhs - rhs) / scale)


def _stability_quotients(x1: np.ndarray, x2: np.ndarray, variant: str):
    """Numerator and denominator of ``stability_ratio`` for each row pair
    of two (T, n) stacks.

    S is real-linear, so ``S(x1) -+ S(x2)`` is ``S(x1 -+ x2)`` entry for
    entry (up to the sign of zeros) and its norms are the same bits.
    """
    t = x1.shape[0]
    v = _symmetrized_rows(np.concatenate([x1, x2]), variant)
    intensity = _intensity_rows(v)
    num = row_norms(intensity[:t] - intensity[t:])
    if variant == VARIANT_S:
        return num, row_norms(v[:t] - v[t:]) * row_norms(v[:t] + v[t:])
    return num, 2.0 * row_norms(x1 - x2) * row_norms(x1 + x2)


def stability_ratio(x1, x2, variant: str = VARIANT_S) -> float | None:
    """Stability quotient for one pair; None when the pair is excluded.

    Numerator: distance of the intensity measurement vectors.  The
    denominator is ``||S(x1-x2)|| ||S(x1+x2)||`` for the padded variant
    and ``2 ||x1-x2|| ||x1+x2||`` for the S' variant; pairs with
    denominator below 1e-8 (x2 near +-x1, the declared sign ambiguity)
    are excluded.
    """
    num, den = _stability_quotients(_as_row(x1), _as_row(x2), variant)
    if den[0] <= DENOMINATOR_THRESHOLD:
        return None
    return float(num[0] / den[0])


@dataclass(frozen=True)
class StabilityEstimate:
    c_hat: float
    worst_x1: tuple
    worst_x2: tuple
    trials: int
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


def _coordinates(x: np.ndarray, variant: str) -> np.ndarray:
    """Real coordinates u of each row of a (T, n) stack, Re x then Im x
    (no Im x_0 under S), scaled so that ``||S(x)|| = ||u||``."""
    u = math.sqrt(2.0) * np.concatenate([x.real, x.imag], axis=1)
    if variant == VARIANT_S:
        u[:, 0] = x[:, 0].real
        u = np.delete(u, x.shape[1], axis=1)
    return u


def _from_coordinates(u: np.ndarray, n: int, variant: str) -> np.ndarray:
    """The (T, n) stack whose ``_coordinates`` are the rows of ``u``."""
    if variant == VARIANT_S:
        u = np.insert(u, n, 0.0, axis=1)
        u[:, 0] *= math.sqrt(2.0)
    return (u[:, :n] + 1j * u[:, n:]) / math.sqrt(2.0)


def _refine(pairs: np.ndarray, variant: str) -> np.ndarray:
    """The pairs ``rnmp.alternating_min`` reaches from a (P, 2, n) stack:
    with a = x1 - x2 and b = x1 + x2 unit, ``A(x1) - A(x2) = Re(F S(a)
    conj(F S(b)))`` is real-linear in each for the other fixed, so in
    ``_coordinates`` a half-step takes the bottom eigenvector of ``J^T J``,
    ``J = Re(conj(F S(b)) F S(basis))``."""
    n = pairs.shape[2]
    def spectra(u):  # unitary DFT of S(x) for each row u of coordinates
        v = _symmetrized_rows(_from_coordinates(u, n, variant), variant)
        return np.fft.fft(v, axis=-1) / math.sqrt(v.shape[1])
    basis_spectra = spectra(np.eye(2 * n - (variant == VARIANT_S))).T
    def form(half, v):
        j = (np.conj(spectra(v))[:, :, None] * basis_spectra).real
        return np.swapaxes(j, 1, 2) @ j
    b = _coordinates(pairs[:, 0] + pairs[:, 1], variant)
    _, b = rnmp.alternating_min(form, b / row_norms(b)[:, None])
    a = np.linalg.eigh(form(0, b))[1][..., 0]  # one more half-step
    return np.stack([_from_coordinates(b + a, n, variant),
                     _from_coordinates(b - a, n, variant)], axis=1) / 2


def stability_constant_estimate(n: int, trials: int, seed: int = 0,
                                variant: str = VARIANT_S) -> StabilityEstimate:
    """Least stability quotient over sampled pairs and their refinements.

    Trials are drawn ``rnmp.CHUNK`` at a time by one ``complex_normals``
    call (the stream and final generator state of one draw per trial) and
    scored by one array kernel call; the five smallest quotients are kept,
    ties in trial order.  Pure sampling overestimates the constant, so each
    of those pairs seeds an alternating minimization (``_refine``); the
    least refined quotient, first in sampled order, wins if it is lower.
    Variant S at n = 1 raises ``ValueError``: every pair is a sign flip.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if trials <= 0:
        raise ValueError("trials must be positive")
    if variant == VARIANT_S and n == 1:
        raise ValueError("variant S needs n >= 2: at n = 1 every sampled "
                         "pair is a sign flip and is excluded")
    rng = np.random.default_rng(seed)
    ratios = np.empty(0)
    pairs = np.empty((0, 2, n), dtype=complex)
    for start in range(0, trials, rnmp.CHUNK):
        k = min(rnmp.CHUNK, trials - start)
        drawn = complex_normals(rng, 2 * k, n).reshape(k, 2, n)
        if variant == VARIANT_S:
            drawn[:, :, 0] = drawn[:, :, 0].real
        drawn /= row_norms(drawn)[..., None]
        num, den = _stability_quotients(drawn[:, 0], drawn[:, 1], variant)
        kept = den > DENOMINATOR_THRESHOLD
        ratios = np.concatenate([ratios, num[kept] / den[kept]])
        pairs = np.concatenate([pairs, drawn[kept]])
        order = np.argsort(ratios, kind="stable")[:5]
        ratios, pairs = ratios[order], pairs[order]
    if not ratios.size:
        raise RuntimeError("all sampled pairs were excluded")
    pairs = np.concatenate([pairs[:1], _refine(pairs, variant)])
    num, den = _stability_quotients(pairs[:, 0], pairs[:, 1], variant)
    i = int(np.argmin(num / den))  # the sampled pair wins ties
    x1, x2 = pairs[i].tolist()
    return StabilityEstimate(float(num[i] / den[i]), tuple(x1), tuple(x2),
                             trials, seed, variant)

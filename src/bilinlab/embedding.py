"""The bilinear measurement count plus Monte Carlo embedding checks.

``sample_complexity_bilinear`` evaluates the measurement-count formula
(natural log; the absolute constant is an input, default 1.0).  The Monte
Carlo side draws unit sparse pairs (x, y), lifts them through a bilinear
map B (such as x * y) and reports the empirical distortion of
``||Phi v|| / ||v||`` over v = B(x, y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import BilinearMap, LinearOperator
from .signals import row_norms, sparse_draws

NEAR_KERNEL_REL = 1e-12
# Entries of the widest per-trial array (a factor, a lifted vector or its
# measurement) in one stack of verify_embedding: 64 KiB of complex values,
# whatever the number of trials or their sizes.  Larger stacks run no faster
# and raise the peak memory (2^15 entries: +4.5 MB on 2500 trials at n = 64).
STACK_ENTRIES = 2 ** 12


@dataclass(frozen=True)
class StructuredSetSpec:
    """The pairs of unit s-sparse x in C^n1 and f-sparse y in C^n2."""

    n1: int
    n2: int
    s: int
    f: int

    def __post_init__(self):
        if min(self.n1, self.n2, self.s, self.f) < 1:
            raise ValueError("parameters must be positive")
        if self.s > self.n1 or self.f > self.n2:
            raise ValueError("sparsity exceeds dimension")


@dataclass(frozen=True)
class DistortionReport:
    """Empirical embedding statistics of ||Phi v|| / ||v||."""

    trials: int
    max_ratio: float
    min_ratio: float
    delta_hat: float
    records: tuple
    skipped: int
    seed: int
    operator_descriptor: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "trials": self.trials,
            "valid_trials": len(self.records),
            "skipped_near_kernel": self.skipped,
            "max_ratio": self.max_ratio,
            "min_ratio": self.min_ratio,
            "delta_hat": self.delta_hat,
            "delta_hat_is_lower_estimate": True,
            "seed": self.seed,
            "operator": self.operator_descriptor,
        }

    def to_csv_rows(self):
        yield "trial_id,ratio,support_x,support_y"
        for trial_id, ratio, sx, sy in self.records:
            yield "{},{!r},{},{}".format(
                trial_id, ratio,
                ";".join(str(i) for i in sx),
                ";".join(str(j) for j in sy))


def sample_complexity_bilinear(s: int, f: int, kappa: int, n: int,
                               delta: float, c_dprime: float = 1.0) -> int:
    """Measurement count ``ceil(c'' delta^-2 (s+f) log(n/(kappa min(s,f))))``."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if not (1 <= kappa <= min(s, f) and kappa * min(s, f) < n):
        raise ValueError("need 1 <= kappa <= min(s, f) < n / kappa")
    arg = n / (kappa * min(s, f))
    return math.ceil(c_dprime * delta ** -2 * (s + f) * math.log(arg))


@dataclass(frozen=True)
class StructuredSample:
    """One pair of the structured set: unit x and y and their supports."""

    x: np.ndarray
    y: np.ndarray
    support_x: tuple
    support_y: tuple


def _sample_pairs(spec: StructuredSetSpec, rng_x, rng_y, t: int) -> list:
    """Draw t pairs: x from ``rng_x`` and y from ``rng_y``, one
    ``sparse_draws`` call each, so one stream per factor yields the same
    pair for a trial whatever the stack sizes.  Returns the (t, n1) stack
    of unit x, their supports as index tuples, then the same for y."""
    out = []
    for rng, n, k in ((rng_x, spec.n1, spec.s), (rng_y, spec.n2, spec.f)):
        support, vals = sparse_draws(rng, t, n, k, k)
        v = np.zeros((t, n), dtype=complex)
        np.put_along_axis(v, support, vals / row_norms(vals)[:, None], axis=1)
        out += [v, list(map(tuple, support.tolist()))]
    return out


def sample_structured(spec: StructuredSetSpec,
                      rng: np.random.Generator) -> StructuredSample:
    """Draw one pair of the structured set: the one-row case of
    ``verify_embedding``'s sampler, with ``rng`` drawing x and then y."""
    x, sx, y, sy = _sample_pairs(spec, rng, rng, 1)
    return StructuredSample(x[0], y[0], sx[0], sy[0])


def stack_trials(phi: LinearOperator, b: BilinearMap,
                 spec: StructuredSetSpec) -> int:
    """Trials per stack of ``verify_embedding``: the widest per-trial array
    holds at most ``STACK_ENTRIES`` entries in one stack."""
    return max(1, STACK_ENTRIES // max(spec.n1, spec.n2, b.n, phi.rows))


def verify_embedding(phi: LinearOperator, b: BilinearMap,
                     spec: StructuredSetSpec, trials: int,
                     seed: int) -> DistortionReport:
    """Monte Carlo distortion of Phi on V = B(structured set).

    Pairs with ``||B(x, y)|| < 1e-12 ||x y^T||`` are excluded from the
    ratio statistics (near-kernel events of B) and counted separately.
    x and y draw from the two streams of ``default_rng(seed).spawn(2)``,
    one generator call per stack; trial i takes the i-th draw of each, so
    the report does not depend on the stack size.  A stack of trials is
    then lifted, measured and normed by one stacked call each.
    """
    if phi.cols != b.n:
        raise ValueError("operator input dimension must match B output")
    if trials < 1:
        raise ValueError("trials must be positive")
    rng_x, rng_y = np.random.default_rng(seed).spawn(2)
    step = stack_trials(phi, b, spec)
    records = []
    skipped = 0
    for first in range(0, trials, step):
        x, sx, y, sy = _sample_pairs(spec, rng_x, rng_y,
                                     min(step, trials - first))
        v = b.apply_pair(x, y)
        vn = row_norms(v)
        # Every x y^T has norm 1 up to rounding, so only a row below twice
        # the threshold needs that norm itself.
        keep = vn >= 2 * NEAR_KERNEL_REL
        for t in np.flatnonzero(~keep):
            keep[t] = not vn[t] < NEAR_KERNEL_REL * np.linalg.norm(
                np.outer(x[t], y[t]))
        skipped += int(np.count_nonzero(~keep))
        measured = row_norms(phi.apply(v[keep])) / vn[keep]
        records += [(first + t, r, sx[t], sy[t])
                    for t, r in zip(np.flatnonzero(keep).tolist(),
                                    measured.tolist())]
    ratios = [r for _, r, _, _ in records]
    max_ratio = max(ratios) if ratios else math.nan
    min_ratio = min(ratios) if ratios else math.nan
    delta_hat = max(abs(r - 1.0) for r in ratios) if ratios else math.nan
    return DistortionReport(trials, max_ratio, min_ratio, delta_hat,
                            tuple(records), skipped, seed,
                            dict(phi.descriptor))

"""Entropy and sample-complexity calculators plus Monte Carlo embedding checks.

The calculators evaluate the covering-entropy and measurement-count
formulas (natural log throughout; the absolute constants are configurable
inputs, default 1.0).  The Monte Carlo side draws members of the
structured signal sets, pushes them through a bilinear map B and a
measurement operator Phi, and reports the empirical distortion of
``||Phi v|| / ||v||``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import BilinearMap, LinearOperator

KINDS = ("sparse_vectors", "sparse_rank_one", "sparse_rank_one_diff",
         "sparse_lowrank", "symmetric_quadratic")

NEAR_KERNEL_REL = 1e-12


@dataclass(frozen=True)
class StructuredSetSpec:
    """Which structured signal set to sample, and its parameters."""

    kind: str
    n1: int
    n2: int = 1
    s: int = 1
    f: int = 1
    kappa: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if min(self.n1, self.n2, self.s, self.f, self.kappa) < 1:
            raise ValueError("parameters must be positive")
        if self.s > self.n1 or (self.kind != "sparse_vectors"
                                and self.f > self.n2):
            raise ValueError("sparsity exceeds dimension")
        if self.kappa > min(self.s, self.f):
            raise ValueError("rank cannot exceed min sparsity")


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


def entropy_union_subspaces(d: float, big_l: float, eps_hat: float) -> float:
    """Covering entropy of a union of L d-dimensional subspace caps (nats)."""
    if eps_hat <= 0 or d < 0 or big_l < 1:
        raise ValueError("invalid entropy parameters")
    return d * math.log(3.0 / eps_hat) + math.log(big_l)


def entropy_sparse_lowrank(s: int, f: int, kappa: int, n: int,
                           eps_hat: float) -> float:
    """Covering entropy of sparse rank-kappa matrix differences (nats)."""
    if eps_hat <= 0:
        raise ValueError("eps_hat must be positive")
    dim_term = (2 * s + 2 * f + 1) * 2 * kappa * math.log(9.0 / eps_hat)
    supp_term = 2 * (s + f) * math.log(math.e * n / (2 * min(s, f)))
    return dim_term + supp_term


def sample_complexity_bilinear(s: int, f: int, kappa: int, n: int,
                               delta: float, c_dprime: float = 1.0) -> int:
    """Measurement count ``ceil(c'' delta^-2 (s+f) log(n/(kappa min(s,f))))``."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    arg = n / (kappa * min(s, f))
    return math.ceil(c_dprime * delta ** -2 * (s + f) * math.log(arg))

def jl_sparsity_requirement(rho: float, entropy: float) -> int:
    """Sparse-JL column sparsity ``ceil(40 (rho + H + 3 ln 2))``."""
    return math.ceil(40.0 * (rho + entropy + 3.0 * math.log(2.0)))


def demodulator_measurement_bound(lam: float, h_eps: float, n: int,
                                  delta: float, c: float = 1.0) -> int:
    """Demodulator measurement count of the universal-sampling lemma.

    ``ceil(64 c delta^-2 (lam+h) max((log(lam+h) log n)^2, lam + log 2))``
    where ``h = H + 4 log 2`` is supplied by the caller.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    total = lam + h_eps
    crit = max((math.log(total) * math.log(n)) ** 2, lam + math.log(2.0))
    return math.ceil(64.0 * c * delta ** -2 * total * crit)


def epsilon_hat(delta: float, alpha: float, beta: float, sigma: float,
                strict: str = "general") -> float:
    """Net resolution pulled back through the bilinear map.

    ``alpha delta / (beta sigma d)`` with divisor d = 7 in general and 4
    when the decomposition is norm preserving; shrunk by 0.999 so the
    strict inequality of the approximation lemma holds.
    """
    divisors = {"general": 7.0, "norm_preserving": 4.0}
    if strict not in divisors:
        raise ValueError("strict must be 'general' or 'norm_preserving'")
    return alpha * delta / (beta * sigma * divisors[strict]) * 0.999


@dataclass(frozen=True)
class StructuredSample:
    """One draw from a structured set, with factors when rank one."""

    kind: str
    array: np.ndarray
    support_x: tuple = ()
    support_y: tuple = ()
    x: np.ndarray | None = None
    y: np.ndarray | None = None


def _sparse_factor(n: int, s: int, rng: np.random.Generator):
    support = np.sort(rng.choice(n, size=s, replace=False))
    v = np.zeros(n, dtype=complex)
    vals = rng.standard_normal(s) + 1j * rng.standard_normal(s)
    v[support] = vals / np.linalg.norm(vals)
    return v, tuple(int(i) for i in support)


def sample_structured(spec: StructuredSetSpec,
                      rng: np.random.Generator) -> StructuredSample:
    """Draw one unit-norm member of the structured set."""
    if spec.kind == "sparse_vectors":
        v, supp = _sparse_factor(spec.n1, spec.s, rng)
        return StructuredSample("sparse_vectors", v, support_x=supp)
    if spec.kind == "sparse_rank_one":
        x, sx = _sparse_factor(spec.n1, spec.s, rng)
        y, sy = _sparse_factor(spec.n2, spec.f, rng)
        return StructuredSample("sparse_rank_one", np.outer(x, y),
                                support_x=sx, support_y=sy, x=x, y=y)
    if spec.kind == "sparse_rank_one_diff":
        a = sample_structured(
            StructuredSetSpec("sparse_rank_one", spec.n1, spec.n2,
                              spec.s, spec.f), rng)
        b = sample_structured(
            StructuredSetSpec("sparse_rank_one", spec.n1, spec.n2,
                              spec.s, spec.f), rng)
        diff = a.array - b.array
        nrm = np.linalg.norm(diff)
        if nrm > 0:
            diff = diff / nrm
        supp = tuple(sorted(set(a.support_x) | set(b.support_x)))
        suppy = tuple(sorted(set(a.support_y) | set(b.support_y)))
        return StructuredSample("sparse_rank_one_diff", diff,
                                support_x=supp, support_y=suppy)
    if spec.kind == "sparse_lowrank":
        rows = np.sort(rng.choice(spec.n1, size=spec.s, replace=False))
        cols = np.sort(rng.choice(spec.n2, size=spec.f, replace=False))
        left = (rng.standard_normal((spec.s, spec.kappa))
                + 1j * rng.standard_normal((spec.s, spec.kappa)))
        right = (rng.standard_normal((spec.kappa, spec.f))
                 + 1j * rng.standard_normal((spec.kappa, spec.f)))
        core = left @ right
        m = np.zeros((spec.n1, spec.n2), dtype=complex)
        m[np.ix_(rows, cols)] = core / np.linalg.norm(core)
        return StructuredSample("sparse_lowrank", m,
                                support_x=tuple(int(i) for i in rows),
                                support_y=tuple(int(j) for j in cols))
    # symmetric_quadratic: difference-style rank-two set (x+y) (x-y)^T
    x, sx = _sparse_factor(spec.n1, spec.s, rng)
    y, sy = _sparse_factor(spec.n1, spec.s, rng)
    m = np.outer(x + y, x - y)
    nrm = np.linalg.norm(m)
    if nrm > 0:
        m = m / nrm
    supp = tuple(sorted(set(sx) | set(sy)))
    return StructuredSample("symmetric_quadratic", m, support_x=supp,
                            support_y=supp, x=x + y, y=x - y)


def verify_embedding(phi: LinearOperator, b: BilinearMap,
                     spec: StructuredSetSpec, trials: int,
                     seed: int) -> DistortionReport:
    """Monte Carlo distortion of Phi on V = B(structured set).

    Draws with ``||B(u)|| < 1e-12 ||u||`` are excluded from the ratio
    statistics (near-kernel events of B) and counted separately.
    """
    if phi.cols != b.n:
        raise ValueError("operator input dimension must match B output")
    if trials < 1:
        raise ValueError("trials must be positive")
    seeds = np.random.SeedSequence(seed).spawn(trials)
    records = []
    skipped = 0
    for trial_id in range(trials):
        rng = np.random.default_rng(seeds[trial_id])
        u = sample_structured(spec, rng)
        if u.x is not None and u.y is not None:
            v = b.apply_pair(u.x, u.y)
        elif u.array.ndim == 2:
            v = b.apply_matrix(u.array)
        else:
            v = np.asarray(u.array, dtype=complex)
        vn = np.linalg.norm(v)
        if vn < NEAR_KERNEL_REL * np.linalg.norm(u.array):
            skipped += 1
            continue
        ratio = float(np.linalg.norm(phi.apply(v)) / vn)
        records.append((trial_id, ratio, u.support_x, u.support_y))
    ratios = [r for _, r, _, _ in records]
    max_ratio = max(ratios) if ratios else math.nan
    min_ratio = min(ratios) if ratios else math.nan
    delta_hat = max(abs(r - 1.0) for r in ratios) if ratios else math.nan
    return DistortionReport(trials, max_ratio, min_ratio, delta_hat,
                            tuple(records), skipped, seed,
                            dict(phi.descriptor))


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
from typing import NamedTuple

import numpy as np

from .operators import BilinearMap, LinearOperator
from .signals import row_norms

KINDS = ("sparse_vectors", "sparse_rank_one", "sparse_rank_one_diff",
         "sparse_lowrank", "symmetric_quadratic")

NEAR_KERNEL_REL = 1e-12
# Entries of the widest per-trial array (a lifted vector, or a dense member)
# in one stack of verify_embedding: 64 KiB of complex values, whatever the
# number of trials or their sizes.  Larger stacks run no faster and raise
# the peak memory (2^15 entries: +4.5 MB on 2500 trials at n = 64).
STACK_ENTRIES = 2 ** 12


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


class _Draws(NamedTuple):
    """Members drawn for a stack of trials, one row per trial: the factor
    stacks ``x``, ``y`` of the kinds lifted as one pair, the members ``u``
    (None for ``sparse_rank_one``: the outer products of its factors) and
    the supports as lists of index tuples."""

    x: np.ndarray | None
    y: np.ndarray | None
    u: np.ndarray | None
    support_x: list
    support_y: list

    def dense(self, t: int) -> np.ndarray:
        """The member drawn in row ``t``."""
        if self.u is None:
            return np.outer(self.x[t], self.y[t])
        return self.u[t]


def _roles(spec: StructuredSetSpec) -> tuple:
    """The factor roles of one member, in draw order: per role the
    dimension n, the support size and the number w of complex
    coefficients."""
    n1, n2, s, f = spec.n1, spec.n2, spec.s, spec.f
    if spec.kind == "sparse_vectors":
        return ((n1, s, s),)
    if spec.kind == "sparse_rank_one":
        return ((n1, s, s), (n2, f, f))
    if spec.kind == "sparse_rank_one_diff":
        return ((n1, s, s), (n2, f, f)) * 2
    if spec.kind == "sparse_lowrank":
        return ((n1, s, s * spec.kappa), (n2, f, spec.kappa * f))
    return ((n1, s, s), (n1, s, s))  # symmetric_quadratic: x and y


def _role_draw(rng, t: int, n: int, s: int, w: int):
    """t draws of one role from one ``standard_normal((t, n + 2w))`` call:
    per row n keys, then the real and then the imaginary parts of the w
    coefficients.  The support, the sorted indices of the s smallest keys,
    is a uniform s-subset.  Returns the (t, s) supports and (t, w)
    coefficients."""
    g = rng.standard_normal((t, n + 2 * w))
    support = np.sort(np.argpartition(g[:, :n], s - 1, axis=1)[:, :s], axis=1)
    return support, g[:, n:n + w] + 1j * g[:, n + w:]


def _unit_factor(n: int, support, vals):
    """The (t, n) stack of unit vectors with ``vals`` on ``support``."""
    v = np.zeros((len(vals), n), dtype=complex)
    np.put_along_axis(v, support, vals / row_norms(vals)[:, None], axis=1)
    return v


def _outer(x, y):
    return x[:, :, None] * y[:, None, :]


def _normalized(m):
    """Every member of a stack of matrices divided by its norm, if nonzero."""
    nrm = row_norms(m.reshape(len(m), -1))
    return m / np.where(nrm > 0, nrm, 1.0)[:, None, None]


def _tuples(support):
    return list(map(tuple, support.tolist()))


def _unions(a, b):
    return [tuple(np.union1d(p, q).tolist()) for p, q in zip(a, b)]


def _sample_stack(spec: StructuredSetSpec, rngs, t: int) -> _Draws:
    """Draw t unit-norm members of the structured set.

    ``rngs`` holds one generator per factor role of ``_roles(spec)``, and
    each role takes one ``_role_draw`` call, in role order.  So one stream
    per role yields the same member for a trial whatever the stack sizes.
    """
    roles = _roles(spec)
    draws = [_role_draw(rng, t, *role) for rng, role in zip(rngs, roles)]
    if spec.kind == "sparse_lowrank":
        (rows, left), (cols, right) = draws
        core = (left.reshape(t, spec.s, spec.kappa)
                @ right.reshape(t, spec.kappa, spec.f))
        m = np.zeros((t, spec.n1, spec.n2), dtype=complex)
        m[np.arange(t)[:, None, None], rows[:, :, None],
          cols[:, None, :]] = _normalized(core)
        return _Draws(None, None, m, _tuples(rows), _tuples(cols))
    factors = [_unit_factor(n, support, vals)
               for (n, _, _), (support, vals) in zip(roles, draws)]
    supports = [support for support, _ in draws]
    if spec.kind == "sparse_vectors":
        return _Draws(None, None, factors[0], _tuples(supports[0]), [()] * t)
    if spec.kind == "sparse_rank_one":
        x, y = factors
        return _Draws(x, y, None, _tuples(supports[0]), _tuples(supports[1]))
    if spec.kind == "sparse_rank_one_diff":
        x, y, x2, y2 = factors
        sx, sy, sx2, sy2 = supports
        diff = _normalized(_outer(x, y) - _outer(x2, y2))
        return _Draws(None, None, diff, _unions(sx, sx2), _unions(sy, sy2))
    # symmetric_quadratic: difference-style rank-two set (x+y) (x-y)^T
    x, y = factors
    supp = _unions(*supports)
    return _Draws(x + y, x - y, _normalized(_outer(x + y, x - y)), supp, supp)


def sample_structured(spec: StructuredSetSpec,
                      rng: np.random.Generator) -> StructuredSample:
    """Draw one unit-norm member of the structured set.

    The one-row case of ``verify_embedding``'s sampler, with ``rng``
    serving every factor role in turn.
    """
    d = _sample_stack(spec, [rng] * len(_roles(spec)), 1)
    return StructuredSample(spec.kind, d.dense(0), d.support_x[0],
                            d.support_y[0], None if d.x is None else d.x[0],
                            None if d.y is None else d.y[0])


def stack_trials(phi: LinearOperator, b: BilinearMap,
                 spec: StructuredSetSpec) -> int:
    """Trials per stack of ``verify_embedding``: the widest per-trial array
    holds at most ``STACK_ENTRIES`` entries in one stack."""
    width = max(spec.n1, spec.n2, b.n, phi.rows)
    if spec.kind not in ("sparse_vectors", "sparse_rank_one"):
        width *= spec.n1  # bounds the dense n1 x n2 (or n1 x n1) members
    return max(1, STACK_ENTRIES // width)


def verify_embedding(phi: LinearOperator, b: BilinearMap,
                     spec: StructuredSetSpec, trials: int,
                     seed: int) -> DistortionReport:
    """Monte Carlo distortion of Phi on V = B(structured set).

    Draws with ``||B(u)|| < 1e-12 ||u||`` are excluded from the ratio
    statistics (near-kernel events of B) and counted separately.  Every
    factor role (x and y of a rank-one pair, say) draws from its own
    stream, spawned from ``SeedSequence(seed)``, one generator call per
    stack; trial i takes the i-th draw of each role, so the report does
    not depend on the stack size.  A stack of trials is then lifted,
    measured and normed by one stacked call each.
    """
    if phi.cols != b.n:
        raise ValueError("operator input dimension must match B output")
    if trials < 1:
        raise ValueError("trials must be positive")
    rngs = [np.random.default_rng(s) for s in
            np.random.SeedSequence(seed).spawn(len(_roles(spec)))]
    step = stack_trials(phi, b, spec)
    records = []
    skipped = 0
    for first in range(0, trials, step):
        d = _sample_stack(spec, rngs, min(step, trials - first))
        if d.x is not None:
            v = b.apply_pair(d.x, d.y)
        elif d.u.ndim == 3:
            v = b.apply_matrix(d.u)
        else:
            v = d.u
        vn = row_norms(v)
        # Every member has norm 1 up to rounding (or 0), so only a row
        # below twice the threshold needs ||u|| itself.
        keep = vn >= 2 * NEAR_KERNEL_REL
        for t in np.flatnonzero(~keep):
            keep[t] = not vn[t] < NEAR_KERNEL_REL * np.linalg.norm(d.dense(t))
        skipped += int(np.count_nonzero(~keep))
        measured = row_norms(phi.apply(v[keep])) / vn[keep]
        records += [(first + t, r, d.support_x[t], d.support_y[t])
                    for t, r in zip(np.flatnonzero(keep).tolist(),
                                    measured.tolist())]
    ratios = [r for _, r, _, _ in records]
    max_ratio = max(ratios) if ratios else math.nan
    min_ratio = min(ratios) if ratios else math.nan
    delta_hat = max(abs(r - 1.0) for r in ratios) if ratios else math.nan
    return DistortionReport(trials, max_ratio, min_ratio, delta_hat,
                            tuple(records), skipped, seed,
                            dict(phi.descriptor))

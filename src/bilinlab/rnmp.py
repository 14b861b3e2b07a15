"""Norm multiplicativity constants of sparse convolutions.

For unit-norm s-sparse x and f-sparse y the convolution norm satisfies
``alpha(s,f) <= ||x * y|| <= beta(s,f)`` with ``beta^2 = min(s,f)``.  This
module computes a search estimate of the lower bound for alpha through the
autocorrelation Toeplitz / restricted determinant chain, and an empirical
upper estimate by alternating minimization over support pairs.  For
min(s, f) >= 3 the determinant comes from a heuristic search that gives an
upper estimate of D_{n,k}, so the lower value is not a proven bound.

The quadratic form identity driving everything: for fixed unit y,
``||x * y||^2 = <x, B_y x>`` where ``B_y`` is the Hermitian Toeplitz
matrix built from the autocorrelation of y.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import eigh
from .signals import SparseVector, row_norms

# The restricted-eigenvalue search enumerates its supports while there are
# at most this many and otherwise runs a seeded greedy descent; the
# determinant search refuses more translation-normalized supports.
EXHAUSTIVE_SUPPORT_LIMIT = 10 ** 5

ALT_MIN_MAX_ITERS = 200
ALT_MIN_STALL = 1e-10
DEFAULT_RESTARTS = 32

# Rows (matrices, descents, alternating minimizations) that every search
# stacks per call, which bounds its memory; each search takes the minimum
# over its chunks, so no result depends on it.
CHUNK = 256

# Cap on the Toeplitz dimension of the determinant-chain lower bound, which
# keeps its determinant search tractable; compute_bounds records the cap.
MAX_TOEPLITZ_DIM = 16


@dataclass(frozen=True)
class HermitianToeplitz:
    """n x n Hermitian Toeplitz matrix stored as its first row.

    ``first_row[k] = b_k`` for k >= 0; ``b_{-k} = conj(b_k)`` implied.
    """

    n: int
    first_row: tuple

    def __post_init__(self):
        row = tuple(complex(v) for v in self.first_row)
        if len(row) != self.n or self.n < 1:
            raise ValueError("first_row must have n entries")
        if abs(row[0].imag) > 1e-12 * (1.0 + abs(row[0])):
            raise ValueError("b_0 must be real")
        object.__setattr__(self, "first_row", row)

    def to_matrix(self) -> np.ndarray:
        return _toeplitz(_lag_row(self), np.arange(self.n)[None])[0]


def _lag_row(t: HermitianToeplitz) -> np.ndarray:
    """The one-row lag stack ``b_{-(n-1)} .. b_{n-1}`` of ``t``, lag 0 at
    index n-1 (the layout of ``_autocorr_rows``)."""
    b = np.asarray(t.first_row)
    return np.concatenate([np.conj(b[:0:-1]), b])[None]


def _toeplitz(lags: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Toeplitz matrices restricted to each row of ``supports``: entry
    (r, i, j) is ``lags[r, n-1 + s_j - s_i]`` for the support s in row r,
    where each row of ``lags`` holds the 2n-1 lags of one matrix (lag 0 at
    n-1).  A single lag row is shared by every support, and a single
    support by every lag row."""
    n = (lags.shape[1] + 1) // 2
    idx = n - 1 + supports[:, None, :] - supports[:, :, None]
    if len(supports) == 1:  # a one-axis gather: several times faster
        return lags[:, idx[0]]
    rows = lags.shape[1] * np.arange(len(lags))[:, None, None]
    return lags.reshape(-1)[rows + idx]


def _anchored_supports(n: int, k: int) -> list:
    """The k-subsets of range(n) containing 0, in lexicographic order: one
    per translation class, which is all an autocorrelation sees."""
    return [(0,) + rest
            for rest in itertools.combinations(range(1, n), k - 1)]


def autocorrelation_toeplitz(t: SparseVector, n: int) -> HermitianToeplitz:
    """Toeplitz matrix of the autocorrelation ``b_k = sum_j conj(t_j) t_{j+k}``.

    ``t`` is normalized internally, so ``b_0 = 1``.
    """
    if t.sparsity() == 0 or t.norm() == 0:
        raise ValueError("autocorrelation of the zero vector is undefined")
    # Zero padded on Z: rows longer than t read lags past its span.
    v = np.pad(t.dense() / t.norm(), (0, max(n - t.n, 0)))
    b = _autocorr_rows(v[None])[0, v.size - 1:v.size - 1 + n]
    b[0] = b[0].real
    return HermitianToeplitz(n, tuple(b.tolist()))


def min_eigenvalue(t: HermitianToeplitz) -> float:
    """Smallest eigenvalue."""
    return float(eigh.eigvalsh(t.to_matrix())[0])


def restricted_min_eigenvalue(t: HermitianToeplitz, s: int,
                              seed: int = 0, restarts: int = 64) -> float:
    """Minimum of ``lambda_min`` over all s x s principal submatrices.

    Exhaustive while C(n, s) <= 1e5; otherwise greedy support descent with
    seeded random restarts, returning an upper bound on the true minimum.
    """
    if not 1 <= s <= t.n:
        raise ValueError("need 1 <= s <= n")
    if restarts < 1:
        raise ValueError("restarts must be positive")
    lags = _lag_row(t)
    best = math.inf
    if math.comb(t.n, s) <= EXHAUSTIVE_SUPPORT_LIMIT:
        supports = itertools.combinations(range(t.n), s)
        while chunk := list(itertools.islice(supports, CHUNK)):
            vals = eigh.eigvalsh(_toeplitz(lags, np.array(chunk)))
            best = min(best, float(vals[:, 0].min()))
        return best
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for _ in range(restarts):
        idx = sorted(rng.choice(t.n, size=s, replace=False).tolist())
        val = float(eigh.eigvalsh(_toeplitz(lags, np.array([idx])))[0, 0])
        while True:
            # Every single swap of the sweep in one call; the first
            # improving one in scan order (out, then inc ascending) wins.
            swaps = [sorted(set(idx) - {out} | {inc})
                     for out in idx for inc in range(t.n) if inc not in idx]
            vals = eigh.eigvalsh(_toeplitz(lags, np.array(swaps)))[:, 0]
            better = np.flatnonzero(vals < val - 1e-15)
            if better.size == 0:
                break
            idx, val = swaps[better[0]], float(vals[better[0]])
        best = min(best, val)
    return best


def eigen_det_lower_bound(t: HermitianToeplitz) -> float:
    """Determinant-based lower bound on the smallest eigenvalue.

    ``|det T| / (sqrt(n) * (sum_k |b_k|^2)^{(n-1)/2})`` with the sum over
    k = -(n-1) .. n-1.
    """
    b = np.asarray(t.first_row)
    energy = abs(b[0]) ** 2 + 2.0 * float(np.sum(np.abs(b[1:]) ** 2))
    det = abs(np.linalg.det(t.to_matrix()))
    return float(det / (math.sqrt(t.n) * energy ** ((t.n - 1) / 2)))


@dataclass(frozen=True)
class DeterminantEstimate:
    """Upper estimate of the k-restricted determinant D_{n,k}."""

    n: int
    k: int
    value: float
    argmin_support: tuple
    argmin_values: tuple
    seed: int


def _autocorr_rows(t: np.ndarray) -> np.ndarray:
    """``np.correlate(v, v, "full")`` for each row v of a (R, n) stack.

    One ``vecdot`` per lag: entry n-1+d is ``b_d`` and entry n-1-d is
    ``conj(b_d)``.  Each entry is the same BLAS dot as in ``np.correlate``,
    so the rows are the same bits; an FFT or ``einsum`` would not be.
    """
    n = t.shape[1]
    out = np.empty((t.shape[0], 2 * n - 1), dtype=complex)
    for d in range(n):
        out[:, n - 1 + d] = np.vecdot(t[:, :n - d], t[:, d:])
        out[:, n - 1 - d] = np.vecdot(t[:, d:], t[:, :n - d])
    return out


def _det_matrices(n: int, supports, coeffs: np.ndarray) -> np.ndarray:
    """Stack of ``B_t``, where t is each row of ``coeffs`` placed on the same
    row of ``supports`` (or on one shared support) in dimension n and
    normalized."""
    r, k = coeffs.shape
    c = coeffs / row_norms(coeffs)[:, None]
    t = np.zeros((r, n), dtype=complex)
    t[np.arange(r)[:, None], supports] = c
    # Normalized a second time, as autocorrelation_toeplitz does through
    # SparseVector.norm: abs(v) ** 2 summed left to right.  hypot and
    # float_power are Python's abs and ** bit for bit; np.abs and x ** 2
    # are not.
    squares = np.float_power(np.hypot(c.real, c.imag), 2.0)
    total = squares[:, 0]
    for j in range(1, k):
        total = total + squares[:, j]
    t /= np.sqrt(total)[:, None]
    return _toeplitz(_autocorr_rows(t), np.arange(n)[None])


def _det_objective(n: int, supports, coeffs: np.ndarray) -> np.ndarray:
    """``|det B_t|`` for each row of ``coeffs`` (see ``_det_matrices``)."""
    return np.abs(np.linalg.det(_det_matrices(n, supports, coeffs)))


def _det_gradient(n: int, supports: np.ndarray, c: np.ndarray,
                  val: np.ndarray) -> np.ndarray:
    """Gradient of ``|det B_t|`` on the unit sphere at each unit row of
    ``c`` on the same row of ``supports``, where ``val`` holds those
    values: entry p is the derivative along Re c_p plus i times the one
    along Im c_p.

    Jacobi's formula: ``d log det B = tr(B^-1 dB)`` (B is positive
    definite).  Moving Re c_p changes ``b_d`` by ``t_{p+d} + conj(t_{p-d})``
    and moving Im c_p by ``-i t_{p+d} + i conj(t_{p-d})``, so the trace
    needs only the diagonal sums ``S_d = sum_i (B^-1)_{i+d,i}`` of the
    inverse: it is twice the real and imaginary part of
    ``sum_q S_{q-p} c_q``.  ``|det B_t|`` is 2n-homogeneous in c, so
    projecting onto the sphere subtracts ``2n c`` from the log-gradient.
    Every sum runs left to right within a row, so a row gets the same bits
    in any stack; a BLAS matmul, blocked by the stack height, would not.
    """
    r, k = c.shape
    inv = np.linalg.inv(_det_matrices(n, supports, c))
    # diag[:, n - 1 + d] = S_d, added up top row first.
    diag = np.zeros((r, 2 * n - 1), dtype=complex)
    for i in range(n):
        diag[:, i:i + n] += inv[:, i, ::-1]
    # pair[:, p, q] = S_{q-p} for support positions p, q of the row.
    pair = _toeplitz(diag, supports)
    g = pair[:, :, 0] * c[:, None, 0]
    for q in range(1, k):
        g = g + pair[:, :, q] * c[:, None, q]
    return 2.0 * val[:, None] * (g - n * c)


def _descend(n: int, supports: np.ndarray, c: np.ndarray):
    """Projected gradient descents on the unit sphere, one per row of the
    unit coefficient stack ``c`` on the same row of ``supports``, run in
    lockstep; returns the final coefficients and values of ``|det B_t|``.

    Every descent keeps its own step (0.3 at first): the exact gradient
    (``_det_gradient``), then a normalized step that is taken if it lowers
    the value and halved otherwise.  A rejected step leaves the point, and
    so its gradient, as it was; only rows that moved get a new gradient.
    A descent stops when its step falls below 1e-6 or its gradient norm
    below 1e-12, checked in that order, and after 120 steps at most.
    """
    val = _det_objective(n, supports, c)
    grad = _det_gradient(n, supports, c, val)
    step = np.full(len(c), 0.3)
    live = np.arange(len(c))
    for _ in range(120):
        live = live[~(step[live] < 1e-6)]
        if not live.size:
            break
        gn = row_norms(grad[live])
        moving = ~(gn < 1e-12)
        live = live[moving]
        tc = c[live] - step[live, None] * grad[live] / gn[moving, None]
        tc /= row_norms(tc)[:, None]
        tval = _det_objective(n, supports[live], tc)
        better = tval < val[live]
        moved = live[better]
        c[moved] = tc[better]
        val[moved] = tval[better]
        grad[moved] = _det_gradient(n, supports[moved], c[moved], val[moved])
        step[live[~better]] *= 0.5
    return c, val


def restricted_determinant(n: int, k: int, search_budget: int = 64,
                           seed: int = 0) -> DeterminantEstimate:
    """Search estimate of ``D_{n,k} = min |det B_t|`` over unit k-sparse t.

    Exhaustive over translation-normalized supports (smallest index 0)
    combined with multi-start projected gradient descent on the unit
    sphere of the support coefficients.  ``search_budget`` counts restarts
    per support (at most 64).  The value is an upper estimate of the true
    minimum.

    The descents, in (support, restart) order, run in lockstep
    ``CHUNK`` at a time, each step scoring the trial points of every
    live descent with one stacked determinant and taking the new gradients
    of the descents that moved with one stacked inverse (Jacobi's formula,
    ``_det_gradient``).
    A chunk's start points come from one ``standard_normal((m, 2, k))``
    call, real parts then imaginary parts per descent: the stream of one
    start per restart.  The first strict minimum in (support, restart)
    order wins.  More than ``EXHAUSTIVE_SUPPORT_LIMIT`` supports raise
    ``ValueError``.
    """
    if search_budget <= 0:
        raise ValueError("search budget must be positive")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if math.comb(n - 1, k - 1) > EXHAUSTIVE_SUPPORT_LIMIT:
        raise ValueError(f"C({n - 1}, {k - 1}) supports exceed "
                         "EXHAUSTIVE_SUPPORT_LIMIT = "
                         f"{EXHAUSTIVE_SUPPORT_LIMIT}")
    if k == 1:
        return DeterminantEstimate(n, 1, 1.0, (0,), (1.0 + 0j,), seed)
    supports = _anchored_supports(n, k)
    support_rows = np.array(supports)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    best = math.inf
    best_support = supports[0]
    best_coeffs = np.ones(k, dtype=complex) / math.sqrt(k)
    restarts = min(search_budget, 64)
    descents = len(supports) * restarts
    for start in range(0, descents, CHUNK):
        stop = min(start + CHUNK, descents)
        # axes (descent, real/imaginary part, coefficient): the draw order
        draws = rng.standard_normal((stop - start, 2, k))
        c = draws[:, 0] + 1j * draws[:, 1]
        c /= row_norms(c)[:, None]
        owner = np.arange(start, stop) // restarts
        c, val = _descend(n, support_rows[owner], c)
        i = int(np.argmin(val))
        if val[i] < best:
            best = val[i]
            best_support = supports[owner[i]]
            best_coeffs = c[i] / np.linalg.norm(c[i])
    return DeterminantEstimate(n, k, float(best), tuple(best_support),
                               tuple(best_coeffs.tolist()), seed)


def compressed_dimension(s: int, f: int, n_ambient: int | None = None) -> int:
    """Toeplitz dimension ``n_tilde`` after Freiman support compression.

    ``floor(2^(2 m2 log2 m2)) = m2^(2 m2)`` with m2 = s+f-2, in exact
    integers, clipped by the ambient dimension; when ``m2 <= 1`` no
    compression is needed and the sumset dimension ``s+f-1`` is returned
    (again clipped).
    """
    if s < 1 or f < 1:
        raise ValueError("sparsities must be positive")
    m2 = s + f - 2
    nt = s + f - 1 if m2 <= 1 else m2 ** (2 * m2)
    if n_ambient is not None:
        nt = min(nt, n_ambient)
    return nt


def alpha_lower_bound(s: int, f: int, n: int, det_budget: int = 16,
                      seed: int = 0) -> float:
    """Determinant-chain search estimate of the lower bound on alpha(s, f).

    Evaluates ``alpha^2 >= D_{nt,k} / sqrt(nt * k^(nt-1))`` with
    k = min(s, f) and nt the compressed dimension capped at
    ``MAX_TOEPLITZ_DIM``.  min(s, f) = 1 returns the exact value 1.  For
    k >= 3 the determinant is an upper estimate of D_{nt,k} from a
    heuristic search, so the result is not a proven bound.
    """
    if not (1 <= s <= n and 1 <= f <= n):
        raise ValueError("need n >= 1 and 1 <= s, f <= n")
    if det_budget < 1:
        raise ValueError("det_budget must be positive")
    k = min(s, f)
    if k > MAX_TOEPLITZ_DIM:
        raise ValueError(f"min(s, f) = {k} exceeds the Toeplitz dimension "
                         f"cap MAX_TOEPLITZ_DIM = {MAX_TOEPLITZ_DIM}")
    if k == 1:
        return 1.0
    nt = min(compressed_dimension(s, f, n), MAX_TOEPLITZ_DIM)
    est = restricted_determinant(nt, k, det_budget, seed)
    alpha_sq = est.value / math.sqrt(nt * float(k) ** (nt - 1))
    return math.sqrt(max(alpha_sq, 0.0))


def _alt_min(n: int, sx: np.ndarray, sy: np.ndarray,
             y: np.ndarray) -> np.ndarray:
    """Alternating minimizations in lockstep from the unit rows of ``y`` on
    the same rows of the sorted supports ``sx``, ``sy``; returns each row's
    last ``||x * y||^2``.  Each half-step places the current vector on its
    support and takes the bottom eigenpair of the other side's restricted
    matrix.  A row stops when its value stalls (``ALT_MIN_STALL``, relative
    to max(1, value)) or after ``ALT_MIN_MAX_ITERS`` rounds."""
    val = np.full(len(y), math.inf)
    live = np.arange(len(y))
    for _ in range(ALT_MIN_MAX_ITERS):
        for on, other in ((sy, sx), (sx, sy)):
            dense = np.zeros((live.size, n), dtype=complex)
            dense[np.arange(live.size)[:, None], on] = y
            w, vecs = np.linalg.eigh(_toeplitz(_autocorr_rows(dense), other))
            y = vecs[..., 0]
        old = val[live]
        val[live] = w[:, 0]
        going = ~(old - w[:, 0] < ALT_MIN_STALL * np.maximum(1.0, np.abs(old)))
        live, sx, sy, y = live[going], sx[going], sy[going], y[going]
        if not live.size:
            break
    return val


def _min_norm(n: int, pairs, f: int, rng, starts: int) -> float:
    """Least ``||x * y||`` that ``_alt_min`` reaches from ``starts`` random
    unit y per support pair, ``CHUNK`` (pair, start) rows at a
    time.  One ``rng`` call per pair, as the pair is reached, draws the
    real then the imaginary parts of one start after another."""
    rows = ((sx, sy, draws) for sx, sy in pairs
            for draws in rng.standard_normal((starts, 2, f)))
    best = math.inf
    while chunk := list(itertools.islice(rows, CHUNK)):
        sx, sy, draws = (np.array(part) for part in zip(*chunk))
        y = draws[:, 0] + 1j * draws[:, 1]
        y /= row_norms(y)[:, None]
        val = _alt_min(n, np.sort(sx), np.sort(sy), y)
        best = min(best, float(val.min()))
    return math.sqrt(max(best, 0.0))


def pair_min_norm(support_x, support_y, n: int, rng=None,
                  starts: int = 4) -> float:
    """Minimum of ||x * y|| over unit vectors on fixed supports.

    Alternating minimization from ``starts`` random unit y on
    ``support_y`` (see ``_alt_min``).  Convolution is on Z (zero padded).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    support_x = [int(i) for i in support_x]
    support_y = [int(j) for j in support_y]
    if not all(0 <= i < n for i in support_x + support_y):
        raise ValueError("support indices must lie in [0, n)")
    if any(len(set(sup)) < len(sup) for sup in (support_x, support_y)):
        raise ValueError("support indices must be distinct")
    for name, sup in (("support_x", support_x), ("support_y", support_y)):
        if not sup:
            raise ValueError(f"{name} is empty")
    if starts < 1:
        raise ValueError("starts must be positive")
    return _min_norm(n, [(support_x, support_y)], len(support_y), rng, starts)


def _exhaustive_pairs(s: int, f: int, n: int) -> bool:
    """Whether ``alpha_empirical`` enumerates every translation-normalized
    support pair (at most 2000 of them) instead of sampling ``trials``
    pairs."""
    return math.comb(n - 1, s - 1) * math.comb(n - 1, f - 1) <= 2000


def alpha_empirical(s: int, f: int, n: int, trials: int = DEFAULT_RESTARTS,
                    seed: int = 0) -> float:
    """Empirical minimum of ||x * y|| over unit sparse pairs.

    Convolutions are zero padded, so circular equals ordinary convolution.
    Support pairs are enumerated exhaustively when few enough (see
    ``_exhaustive_pairs``), otherwise ``trials`` pairs are sampled; an
    enumeration does not use ``trials``.  Every pair gets two
    starts, and all (pair, start) alternating minimizations run in
    lockstep (see ``_min_norm``).  min(s, f) = 1 returns exactly 1.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not (n >= 1 and 1 <= s <= n and 1 <= f <= n):
        raise ValueError("need n >= 1 and 1 <= s, f <= n")
    if min(s, f) == 1:
        return 1.0
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if _exhaustive_pairs(s, f, n):
        pairs = itertools.product(_anchored_supports(n, s),
                                  _anchored_supports(n, f))
    else:
        pairs = ((rng.choice(n, size=s, replace=False),
                  rng.choice(n, size=f, replace=False))
                 for _ in range(trials))
    return min(_min_norm(n, pairs, f, rng, starts=2), math.sqrt(min(s, f)))


def beta_upper(s: int, f: int) -> float:
    """The sharp upper constant: beta(s, f) = sqrt(min(s, f))."""
    return math.sqrt(min(s, f))


@dataclass(frozen=True)
class RnmpBounds:
    """Two-sided norm multiplicativity constants with provenance."""

    s: int
    f: int
    n_effective: int
    alpha_lower: float
    alpha_empirical: float
    beta: float
    certificates: dict = field(default_factory=dict)

    def __post_init__(self):
        ok = (0.0 <= self.alpha_lower
              <= self.alpha_empirical + 1e-9
              <= self.beta + 1e-9
              <= math.sqrt(min(self.s, self.f)) + 2e-9)
        if not ok:
            raise ValueError("bound ordering violated: "
                             f"{self.alpha_lower} <= {self.alpha_empirical} "
                             f"<= {self.beta}")


def compute_bounds(s: int, f: int, n: int, trials: int = DEFAULT_RESTARTS,
                   seed: int = 0, det_budget: int = 16) -> RnmpBounds:
    """Assemble RnmpBounds with certificates for each number."""
    # alpha_lower_bound checks every other argument before its search.
    if trials <= 0:
        raise ValueError("trials must be positive")
    lower = alpha_lower_bound(s, f, n, det_budget, seed)
    emp = alpha_empirical(s, f, n, trials, seed)
    nt = compressed_dimension(s, f, n)
    nt_used = min(nt, MAX_TOEPLITZ_DIM)
    if min(s, f) == 1:
        # Both values are the exact 1 and neither search runs.
        exact = "exact (min(s, f) = 1)"
        lower_cert = {"method": exact, "exhaustive_supports": True,
                      "proven": True}
        emp_cert = {"method": exact, "exhaustive_pairs": True,
                    "upper_estimate": True}
    else:
        lower_cert = {
            "method": "determinant-chain formula",
            "toeplitz_dim": nt_used,
            "toeplitz_dim_uncapped": nt,
            "capped": nt_used < nt,
            "det_budget": det_budget,
            "seed": seed,
            "exhaustive_supports": True,
            # A search value is an upper estimate of D_{nt,k}, possibly
            # in a capped dimension.
            "proven": False,
        }
        emp_cert = {
            "method": "alternating minimization over support pairs",
            "trials": trials,
            "exhaustive_pairs": _exhaustive_pairs(s, f, n),
            "seed": seed,
            "upper_estimate": True,
        }
    certs = {"alpha_lower": lower_cert, "alpha_empirical": emp_cert,
             "beta": {"method": "closed form sqrt(min(s, f))"}}
    return RnmpBounds(s, f, nt_used, lower, emp, beta_upper(s, f), certs)

"""Norm multiplicativity constants of sparse convolutions.

For unit-norm s-sparse x and f-sparse y the convolution norm satisfies
``alpha(s,f) <= ||x * y|| <= beta(s,f)`` with ``beta^2 = min(s,f)``.  This
module computes the lower bound for alpha through the autocorrelation
Toeplitz / restricted determinant chain, and an empirical upper estimate
by alternating minimization over support pairs.  For min(s, f) = 2 the
determinant is the closed form D_{n,2} = (n+1)/2^n.  For min(s, f) >= 3 it
comes from a heuristic search that gives an upper estimate of D_{n,k}, so
the lower value is not a proven bound.  The alternating minimization
works on the lags inside the two supports, whatever n is.  Both searches
keep one support per translation and reflection class.

The quadratic form identity driving everything: for fixed unit y,
``||x * y||^2 = <x, B_y x>`` where ``B_y`` is the Hermitian Toeplitz
matrix built from the autocorrelation of y.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import eigh
from .signals import (SparseVector, complex_normals, keyed_sums, row_norms,
                      sparse_draws)

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
# Most restarts per support that restricted_determinant's search runs.
MAX_RESTARTS = 64

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
    index n-1 (the layout of ``_lag_rows``)."""
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


def _anchored_supports(n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n) containing 0 as rows, in lexicographic
    order: one per translation class, all that an autocorrelation sees."""
    return np.array([(0,) + rest
                     for rest in itertools.combinations(range(1, n), k - 1)])


def _canonical_supports(n: int, k: int) -> np.ndarray:
    """The rows of ``_anchored_supports(n, k)`` whose gaps are no larger
    (lexicographically) than their reverse: one per reflection class."""
    supports = _anchored_supports(n, k)
    return supports[[g[::-1] >= g for g in np.diff(supports).tolist()]]


def _start_stacks(rng: np.random.Generator, items: int, starts: int, k: int):
    """The items x starts rows of a restart search, item-major, ``CHUNK``
    at a time: each row's item and its unit start of k complex Gaussians,
    from one ``complex_normals`` call per stack, one start after another."""
    rows = items * starts
    for lo in range(0, rows, CHUNK):
        hi = min(lo + CHUNK, rows)
        c = complex_normals(rng, hi - lo, k)
        yield np.arange(lo, hi) // starts, c / row_norms(c)[:, None]


def autocorrelation_toeplitz(t: SparseVector, n: int) -> HermitianToeplitz:
    """Toeplitz matrix of the autocorrelation ``b_k = sum_j conj(t_j) t_{j+k}``.

    ``t`` is normalized internally, so ``b_0 = 1``; lags past its span
    are zero (``_lag_rows``, as in ``_det_objective``).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if t.sparsity() == 0 or t.norm() == 0:
        raise ValueError("autocorrelation of the zero vector is undefined")
    # Lag rows wide enough for every support difference of t.
    m = max(n, t.n)
    b = _lag_rows(m, t.support, np.array([t.values]))[0, m - 1:m - 1 + n]
    return HermitianToeplitz(n, tuple(b.tolist()))


def min_eigenvalue(t: HermitianToeplitz) -> float:
    """Smallest eigenvalue."""
    return float(eigh.eigvalsh(t.to_matrix())[0])


def restricted_min_eigenvalue(t: HermitianToeplitz, s: int,
                              seed: int = 0, restarts: int = 64) -> float:
    """Minimum of ``lambda_min`` over all s x s principal submatrices.

    Exhaustive while C(n, s) <= 1e5; otherwise greedy support descent from
    ``restarts`` seeded random supports, returning an upper bound on the
    true minimum.  A principal submatrix of a Toeplitz matrix depends only
    on the differences of its support, so the exhaustive path scores one
    support per translation class (``_anchored_supports``), both mirror
    images: J conj(M) J has M's eigenvalues but not always their bits.

    Each greedy sweep moves to the first single swap, in scan order
    (outgoing position, then incoming index ascending), that lowers the
    value by more than 1e-15.  It scores the swaps in blocks of n - s, one
    per outgoing position and at most ``CHUNK`` rows, and stops at the
    first block that holds an improvement; only a descent's last sweep
    scores all s (n - s) swaps.  The value equals that of the full-scan
    greedy exactly.
    """
    if not 1 <= s <= t.n:
        raise ValueError("need 1 <= s <= n")
    if restarts < 1:
        raise ValueError("restarts must be positive")
    lags = _lag_row(t)
    best = math.inf
    if math.comb(t.n, s) <= EXHAUSTIVE_SUPPORT_LIMIT:
        supports = _anchored_supports(t.n, s)
        for lo in range(0, len(supports), CHUNK):
            vals = eigh.eigvalsh(_toeplitz(lags, supports[lo:lo + CHUNK]))
            best = min(best, float(vals[:, 0].min()))
        return best
    starts = sparse_draws(np.random.default_rng(seed), restarts, t.n, s)[0]
    block = min(t.n - s, CHUNK)
    for idx in starts:
        val = float(eigh.eigvalsh(_toeplitz(lags, idx[None]))[0, 0])
        while True:
            # The sweep's swaps in scan order (outgoing position, then
            # incoming index ascending), each row sorted; the first one
            # that improves wins, so scoring stops at its block.
            swaps = np.repeat(idx[None], s * (t.n - s), axis=0)
            swaps[np.arange(len(swaps)), np.repeat(np.arange(s), t.n - s)] = (
                np.tile(np.delete(np.arange(t.n), idx), s))
            swaps.sort(axis=1)
            for lo in range(0, len(swaps), block):
                vals = eigh.eigvalsh(_toeplitz(lags, swaps[lo:lo + block]))
                better = np.flatnonzero(vals[:, 0] < val - 1e-15)
                if better.size:
                    idx, val = swaps[lo + better[0]], float(vals[better[0], 0])
                    break
            else:
                break
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


@functools.cache
def _pair_indices(k: int) -> tuple:
    """``np.triu_indices(k)``, read-only and made once per k."""
    pairs = np.triu_indices(k)
    for index in pairs:
        index.flags.writeable = False
    return pairs


@functools.cache
def _diagonal_keys(n: int) -> np.ndarray:
    """The read-only (n, n) grid n - 1 + i - j: entry (i, j)'s diagonal,
    lag 0 at n - 1."""
    i, j = np.indices((n, n))
    keys = n - 1 + i - j
    keys.flags.writeable = False
    return keys


def _lag_rows(n: int, supports, coeffs: np.ndarray) -> np.ndarray:
    """The (R, 2n-1) autocorrelation lag rows (lag 0 at n-1) of each row
    c of ``coeffs``, normalized, on the same row of ``supports`` (or on one
    shared support), whose differences stay below n: ``b_d``, d >= 0, adds
    ``conj(c_a) c_b`` over the pairs a <= b with ``s_b - s_a = d`` in
    row-major order (``keyed_sums``), ``b_0`` is made real and ``b_{-d}``
    is ``conj(b_d)``, so every row is exactly Hermitian."""
    r, k = coeffs.shape
    c = coeffs / row_norms(coeffs)[:, None]
    a, b = _pair_indices(k)
    s = np.asarray(supports)
    width = 2 * n - 1
    keys = n - 1 + s[..., b] - s[..., a] + width * np.arange(r)[:, None]
    rows = keyed_sums(keys, np.conj(c[:, a]) * c[:, b],
                      r * width).reshape(r, width)
    rows[:, n - 1] = rows[:, n - 1].real
    rows[:, :n - 1] = np.conj(rows[:, :n - 1:-1])
    return rows


def _det_objective(n: int, supports, coeffs: np.ndarray):
    """``|det B_t|`` and the stack of ``B_t``, the Toeplitz matrices of
    the ``_lag_rows`` of ``coeffs`` on ``supports`` in dimension n."""
    mats = _toeplitz(_lag_rows(n, supports, coeffs), np.arange(n)[None])
    return np.abs(np.linalg.det(mats)), mats


def _det_gradient(mats: np.ndarray, supports: np.ndarray, c: np.ndarray,
                  val: np.ndarray) -> np.ndarray:
    """Gradient of ``|det B_t|`` on the unit sphere at each unit row of
    ``c`` on the same row of ``supports``, where ``mats`` and ``val`` hold
    the matrices and values of ``_det_objective`` there: entry p is the
    derivative along Re c_p plus i times the one along Im c_p.

    Jacobi's formula: ``d log det B = tr(B^-1 dB)`` (B is positive
    definite).  Moving Re c_p changes ``b_d`` by ``t_{p+d} + conj(t_{p-d})``
    and moving Im c_p by ``-i t_{p+d} + i conj(t_{p-d})``, so the trace
    needs only the diagonal sums ``S_d = sum_i (B^-1)_{i+d,i}`` of the
    inverse: it is twice the real and imaginary part of
    ``sum_q S_{q-p} c_q``.  ``|det B_t|`` is 2n-homogeneous in c, so
    projecting onto the sphere subtracts ``2n c`` from the log-gradient.
    Each sum runs in index order (``keyed_sums``), so a row gets the same
    bits in any stack; a BLAS matmul, blocked by the stack height, would
    not.
    """
    r, k = c.shape
    n = mats.shape[-1]
    width = 2 * n - 1
    # diag[:, n - 1 + d] = S_d, added up top row first.
    diag = keyed_sums(_diagonal_keys(n) + width * np.arange(r)[:, None, None],
                      np.linalg.inv(mats), r * width).reshape(r, width)
    # pair[:, p, q] = S_{q-p} for support positions p, q of the row.
    pair = _toeplitz(diag, supports)
    # g[:, p] = sum_q S_{q-p} c_q, added up left to right.
    g = keyed_sums(np.arange(r * k * k) // k, pair * c[:, None, :], r * k)
    return 2.0 * val[:, None] * (g.reshape(r, k) - n * c)


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
    val, mats = _det_objective(n, supports, c)
    grad = _det_gradient(mats, supports, c, val)
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
        tval, tmats = _det_objective(n, supports[live], tc)
        better = tval < val[live]
        moved = live[better]
        c[moved] = tc[better]
        val[moved] = tval[better]
        grad[moved] = _det_gradient(tmats[better], supports[moved], c[moved],
                                    val[moved])
        step[live[~better]] *= 0.5
    return c, val


def restricted_determinant(n: int, k: int, search_budget: int = MAX_RESTARTS,
                           seed: int = 0) -> DeterminantEstimate:
    """Search estimate of ``D_{n,k} = min |det B_t|`` over unit k-sparse t.

    Exhaustive over one support per translation and reflection class
    (conj(t_{L-j}) on u -> L - u has the lags of t) with multi-start
    projected gradient descent on the unit sphere of the coefficients.
    ``search_budget`` counts restarts per support, 1 to ``MAX_RESTARTS``.
    The value is an upper estimate of the true minimum.

    The descents, in (support, restart) order, run in lockstep
    ``CHUNK`` at a time from the starts of ``_start_stacks``, each step
    scoring the trial points of every live descent with one stacked
    determinant and taking the new gradients of the descents that moved
    with one stacked inverse (Jacobi's formula, ``_det_gradient``).  The
    first strict minimum in (support, restart) order wins.  More than
    ``EXHAUSTIVE_SUPPORT_LIMIT`` anchored supports raise ``ValueError``.
    """
    if search_budget <= 0:
        raise ValueError("search budget must be positive")
    if search_budget > MAX_RESTARTS:
        raise ValueError(f"search budget {search_budget} exceeds "
                         f"MAX_RESTARTS = {MAX_RESTARTS}")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if math.comb(n - 1, k - 1) > EXHAUSTIVE_SUPPORT_LIMIT:
        raise ValueError(f"C({n - 1}, {k - 1}) supports exceed "
                         "EXHAUSTIVE_SUPPORT_LIMIT = "
                         f"{EXHAUSTIVE_SUPPORT_LIMIT}")
    if k == 1:
        return DeterminantEstimate(n, 1, 1.0, (0,), (1.0 + 0j,), seed)
    supports = _canonical_supports(n, k)
    rng = np.random.default_rng(seed)
    best = math.inf
    best_support = supports[0]
    best_coeffs = np.ones(k, dtype=complex) / math.sqrt(k)
    for owner, c in _start_stacks(rng, len(supports), search_budget, k):
        c, val = _descend(n, supports[owner], c)
        i = int(np.argmin(val))
        if val[i] < best:
            best = val[i]
            best_support = supports[owner[i]]
            best_coeffs = c[i] / np.linalg.norm(c[i])
    return DeterminantEstimate(n, k, float(best), tuple(best_support.tolist()),
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
    """Determinant-chain lower bound on alpha(s, f).

    Evaluates ``alpha^2 >= D_{nt,k} / sqrt(nt * k^(nt-1))`` with
    k = min(s, f) and nt the compressed dimension capped at
    ``MAX_TOEPLITZ_DIM``.  min(s, f) = 1 returns the exact value 1, and
    k = 2 takes the closed form ``D_{nt,2} = (nt+1)/2^nt`` with no search.
    For k >= 3 the determinant is an upper estimate of D_{nt,k} from a
    heuristic search, so the result is not a proven bound.
    """
    if not (1 <= s <= n and 1 <= f <= n):
        raise ValueError("need n >= 1 and 1 <= s, f <= n")
    if det_budget < 1:
        raise ValueError("det_budget must be positive")
    if det_budget > MAX_RESTARTS:
        raise ValueError(f"det_budget = {det_budget} exceeds the restarts "
                         f"per support MAX_RESTARTS = {MAX_RESTARTS}")
    k = min(s, f)
    if k > MAX_TOEPLITZ_DIM:
        raise ValueError(f"min(s, f) = {k} exceeds the Toeplitz dimension "
                         f"cap MAX_TOEPLITZ_DIM = {MAX_TOEPLITZ_DIM}")
    if k == 1:
        return 1.0
    nt = min(compressed_dimension(s, f, n), MAX_TOEPLITZ_DIM)
    if k == 2:
        det = (nt + 1) / 2.0 ** nt
    else:
        det = restricted_determinant(nt, k, det_budget, seed).value
    alpha_sq = det / math.sqrt(nt * float(k) ** (nt - 1))
    return math.sqrt(max(alpha_sq, 0.0))


def alternating_min(form, v: np.ndarray, *rows: np.ndarray):
    """Lockstep alternating minimizations from the rows of ``v``; returns
    each row's last value and vector.  Half-step 0, then 1, of a round
    takes the bottom eigenpairs of ``form(half, v, *rows)``, the stacked
    Hermitian matrices the other factor sees; ``rows`` are compacted with
    the live rows.  A row stops when its value falls by less than
    ``ALT_MIN_STALL`` times the magnitude of its previous value, when the
    value is exactly 0, or after ``ALT_MIN_MAX_ITERS`` rounds."""
    val = np.full(len(v), math.inf)
    last = v.copy()
    live = np.arange(len(v))
    for _ in range(ALT_MIN_MAX_ITERS):
        for half in (0, 1):
            w, vecs = np.linalg.eigh(form(half, v, *rows))
            v = vecs[..., 0]
        old, new = val[live], w[:, 0]
        val[live], last[live] = new, v
        going = ~((old - new < ALT_MIN_STALL * np.abs(old)) | (new == 0))
        live, v, *rows = (r[going] for r in (live, v, *rows))
        if not live.size:
            break
    return val, last


def _lag_slots(sx: np.ndarray, sy: np.ndarray):
    """The lag index of the rows of the sorted (R, s) and (R, f) supports
    ``sx`` and ``sy``: each distinct lag ``u_c - u_a`` of a row, in either
    support, gets its own slot.  Returns the number of slots and the
    (R, s, s) and (R, f, f) slot arrays of x's and y's support: entry
    (a, c) is the slot of ``u_c - u_a``, which keys both the pair (a, c)
    of a factor on that support and entry (a, c) of the matrices on it.
    Both are O(s^2 + f^2) per row, whatever n is."""
    (r, s), f = sx.shape, sy.shape[1]
    lags = [(u[:, None, :] - u[:, :, None]).reshape(r, -1) for u in (sx, sy)]
    # Keying each lag by its row keeps the rows' slots apart.
    span = 2 * int(max(sx.max(), sy.max())) + 1
    keys = np.concatenate(lags, axis=1) + span * np.arange(r)[:, None]
    distinct, slot = np.unique(keys.ravel(), return_inverse=True)
    on_x, on_y = np.split(slot.reshape(r, -1), [s * s], axis=1)
    return len(distinct), (on_x.reshape(r, s, s), on_y.reshape(r, f, f))


def _pair_form(half: int, v: np.ndarray, on_x: np.ndarray, on_y: np.ndarray,
               size: int) -> np.ndarray:
    """The autocorrelation of each row of ``v`` restricted to the other
    support, from the ``size`` slots and the ``_lag_slots`` arrays of x's
    and y's support; in half 0 v is on y's support and the s x s matrices
    on x's, in half 1 the other way round.  Entry (p, q) sums
    ``conj(v_a) v_c`` over the pairs (a, c) of v's support with the lag of
    (p, q): one ``keyed_sums`` over the pairs and one gather, with no
    length-n axis."""
    src, dst = (on_y, on_x) if half == 0 else (on_x, on_y)
    outer = np.conj(v)[:, :, None] * v[:, None, :]
    return keyed_sums(src, outer, size)[dst]


def _alt_min(sx: np.ndarray, sy: np.ndarray, y: np.ndarray):
    """Last ``||x * y||^2`` of ``alternating_min`` from each unit row of
    ``y`` on the same rows of the sorted supports ``sx``, ``sy``."""
    size, slots = _lag_slots(sx, sy)
    return alternating_min(functools.partial(_pair_form, size=size), y,
                           *slots)[0]


def _min_norm(sx: np.ndarray, sy: np.ndarray, rng, starts: int) -> float:
    """Least ``||x * y||`` that ``_alt_min`` reaches from ``starts`` random
    unit y per support pair, a row of the sorted supports ``sx`` and
    ``sy``, on the (pair, start) rows of ``_start_stacks``."""
    best = math.inf
    for owner, y in _start_stacks(rng, len(sx), starts, sy.shape[1]):
        best = min(best, float(_alt_min(sx[owner], sy[owner], y).min()))
    return math.sqrt(max(best, 0.0))


def pair_min_norm(support_x, support_y, n: int, rng=None,
                  starts: int = 4) -> float:
    """Minimum of ||x * y|| over unit vectors on fixed supports.

    Alternating minimization from ``starts`` random unit y on
    ``support_y`` (see ``_alt_min``).  Convolution is on Z (zero padded),
    and n only bounds the indices: the cost does not depend on it.
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
    return _min_norm(np.sort([support_x]), np.sort([support_y]), rng, starts)


def _exhaustive_pairs(s: int, f: int, n: int) -> bool:
    """Whether ``alpha_empirical`` enumerates, one per translation and
    reflection class, the support pairs instead of sampling ``trials``
    pairs: while there are at most 2000 translation-normalized pairs."""
    return math.comb(n - 1, s - 1) * math.comb(n - 1, f - 1) <= 2000


def _sampled_pairs(s: int, f: int, n: int, trials: int,
                   rng: np.random.Generator):
    """``trials`` uniform support pairs, then the consecutive one, as rows
    of x's and of y's supports from the two streams of ``rng.spawn(2)``;
    at most ``CHUNK ** 2`` keys per ``sparse_draws`` call bound the memory."""
    step = max(1, CHUNK ** 2 // n)
    return tuple(np.concatenate(
        [sparse_draws(g, min(step, trials - lo), n, k)[0]
         for lo in range(0, trials, step)] + [np.arange(k)[None]])
        for g, k in zip(rng.spawn(2), (s, f)))


def alpha_empirical(s: int, f: int, n: int, trials: int = DEFAULT_RESTARTS,
                    seed: int = 0) -> float:
    """Empirical minimum of ||x * y|| over unit sparse pairs.

    Convolutions are zero padded, so circular equals ordinary convolution.
    Support pairs are enumerated exhaustively when few enough (see
    ``_exhaustive_pairs``), without ``trials``: one per translation and
    reflection class, since only a joint reflection keeps ||x * y||.
    Otherwise ``trials`` pairs are sampled (see ``_sampled_pairs``) and one
    fixed pair is scored after them, x on {0..s-1} and y on {0..f-1}: the
    shape of the s = 2 minimizer, which an enumeration already holds.
    Every pair gets two starts, drawn from the root generator of ``seed``
    in pair order, and all (pair, start) alternating minimizations run in
    lockstep (see ``_min_norm``).  min(s, f) = 1 returns exactly 1.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not (n >= 1 and 1 <= s <= n and 1 <= f <= n):
        raise ValueError("need n >= 1 and 1 <= s, f <= n")
    if min(s, f) == 1:
        return 1.0
    rng = np.random.default_rng(seed)
    if _exhaustive_pairs(s, f, n):
        ax, ay = _canonical_supports(n, s), _anchored_supports(n, f)
        sx, sy = np.repeat(ax, len(ay), axis=0), np.tile(ay, (len(ax), 1))
    else:
        sx, sy = _sampled_pairs(s, f, n, trials, rng)
    return min(_min_norm(sx, sy, rng, starts=2), math.sqrt(min(s, f)))


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
        dims = {"toeplitz_dim": nt_used, "toeplitz_dim_uncapped": nt,
                "capped": nt_used < nt}
        if min(s, f) == 2:
            # The exact D_{nt,2}: the chain is a bound unless nt was capped.
            lower_cert = {"method": "closed form D_{n,2} = (n+1)/2^n",
                          **dims, "proven": nt_used == nt}
        else:
            # A search value is an upper estimate of D_{nt,k}, possibly
            # in a capped dimension.
            lower_cert = {"method": "determinant-chain formula", **dims,
                          "det_budget": det_budget, "seed": seed,
                          "exhaustive_supports": True, "proven": False}
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

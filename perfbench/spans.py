"""Span tracing of bilinlab's public functions, from outside ``src/``.

``instrument`` replaces module attributes with wrappers for the duration of
a ``with`` block and restores them afterwards.  A wrapper records one span
(name, start, end, parent span) per call; the spans stay in flat arrays in
memory and are written out once, by ``Tracer.save``.  A few call sites are
only counted, because a span there would cost more than the work it wraps.

Per-layer metrics are derived from the spans of one traced pass by
``layer_metrics``.  Modules call each other through module attributes
(``eigh.eigvalsh``, ``rnmp.autocorrelation_toeplitz`` ...), which is what
lets a patched attribute see the inner calls too.
"""

from __future__ import annotations

import contextlib
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from bilinlab import (cli, eigh, embedding, freiman, operators, phase,
                      recovery, rnmp, signals)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.counter_names: set = set()
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so that each call records a span named ``name``."""
        nid = self._id(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` so that each call adds one to ``counts[name]``."""
        self.counter_names.add(name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self, first: int = 0):
        """(name ids, parents, durations) of the spans from index ``first``."""
        return (np.frombuffer(self.name_id, dtype=np.int32)[first:],
                np.frombuffer(self.parent, dtype=np.int32)[first:],
                (np.frombuffer(self.end) - np.frombuffer(self.start))[first:])

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def wrapper_costs(calls: int = 20000) -> tuple:
    """Seconds that one span and one counter add to a call, measured on a
    no-op function with a throwaway tracer."""
    def noop():
        return None

    def per_call(fn):
        start = perf_counter()
        for _ in range(calls):
            fn()
        return (perf_counter() - start) / calls

    probe = Tracer()
    bare = per_call(noop)
    return (per_call(probe.span("noop", noop)) - bare,
            per_call(probe.counter("noop", noop)) - bare)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch the public functions of every layer while the block runs."""
    counts = tracer.counts
    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(owner, attr, name, on_result=None):
        patch(owner, attr, tracer.span(name, getattr(owner, attr), on_result))

    def traced_operator(factory):
        def make(*args, **kwargs):
            op = factory(*args, **kwargs)
            op.apply = tracer.span("operators.phi_apply", op.apply)
            return op
        return make

    def on_stability(ratio):
        counts["phase.excluded_pairs"] += ratio is None

    def on_solve(res):
        counts["recovery.ista_iterations"] += res.iterations
        counts["recovery.feasible"] += res.converged

    def on_embedding(report):
        counts["embedding.trials"] += report.trials
        counts["embedding.skipped_near_kernel"] += report.skipped

    def on_freiman(result):
        counts["freiman.budget_exhausted"] += not result.search_exhaustive

    span(cli, "main", "cli.main")
    span(signals.SparseVector, "__init__", "signals.sparse_vector")
    # The layers' entry points under cli.main, so that its self time holds
    # only the CLI's own parsing, input generation and I/O.
    span(rnmp, "compute_bounds", "rnmp.compute_bounds")
    span(phase, "stability_constant_estimate",
         "phase.stability_constant_estimate")
    span(rnmp, "restricted_determinant", "rnmp.restricted_determinant")
    span(rnmp, "autocorrelation_toeplitz", "rnmp.autocorrelation_toeplitz")
    span(rnmp, "alpha_empirical", "rnmp.alpha_empirical")
    span(rnmp, "pair_min_norm", "rnmp.pair_min_norm")
    span(rnmp, "restricted_min_eigenvalue", "rnmp.restricted_min_eigenvalue")
    span(eigh, "eigvalsh", "eigh.eigvalsh")
    span(eigh, "jacobi_eigvalsh", "eigh.jacobi_eigvalsh")
    span(freiman, "min_diameter_isomorphic_image", "freiman.min_diameter",
         on_freiman)
    # One sum pattern is built per candidate image: the search's own check
    # counter is a local variable, so this is the closest count visible
    # from outside.
    patch(freiman, "_sum_pattern",
          tracer.counter("freiman.isomorphism_checks", freiman._sum_pattern))
    span(embedding, "verify_embedding", "embedding.verify_embedding",
         on_embedding)
    span(embedding, "sample_structured", "embedding.sample_structured")
    patch(operators, "gaussian_operator",
          traced_operator(operators.gaussian_operator))
    patch(operators, "universal_random_demodulator",
          traced_operator(operators.universal_random_demodulator))
    span(operators.BilinearMap, "apply_pair", "operators.pair_apply")
    span(phase, "stability_ratio", "phase.stability_ratio", on_stability)
    span(recovery, "bpdn_synthesis", "recovery.bpdn_synthesis", on_solve)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _per_call_us(seconds: float, calls: float) -> float:
    return 1e6 * seconds / calls if calls else 0.0


def layer_metrics(tracer: Tracer, first: int, counts: Counter,
                  recovery_outcomes: tuple, costs: tuple) -> dict:
    """Per-layer metrics of the spans from index ``first`` and the counts
    and ``(successes, attempts)`` of recovery gathered in the same pass.
    ``costs`` is ``wrapper_costs()`` measured in the same run."""
    ids, parents, dur = tracer.arrays(first)
    local_parent = np.where(parents >= 0, parents - first, -1)
    names = tracer.names

    def mask(name):
        return ids == names.index(name) if name in names else ids < -1

    def seconds(name):
        return float(dur[mask(name)].sum())

    def calls(name):
        return int(mask(name).sum())

    # Self time of cli.main: its span minus the spans directly under it.
    child_s = np.bincount(local_parent[local_parent >= 0],
                          weights=dur[local_parent >= 0], minlength=dur.size)
    main = mask("cli.main")
    cli_self = float((dur[main] - child_s[main]).sum())

    det_s = seconds("rnmp.restricted_determinant")
    det_parent = mask("rnmp.restricted_determinant")
    inside_det = mask("rnmp.autocorrelation_toeplitz") & (local_parent >= 0)
    inside_det[inside_det] = det_parent[local_parent[inside_det]]
    solves = calls("recovery.bpdn_synthesis")
    iters = counts["recovery.ista_iterations"]
    successes, attempts = recovery_outcomes
    span_cost, counter_cost = costs
    counter_calls = sum(counts[name] for name in tracer.counter_names)
    return {
        "cli.self_s": cli_self,
        "signals.sparse_vector_builds": calls("signals.sparse_vector"),
        "signals.sparse_vector_s": seconds("signals.sparse_vector"),
        "rnmp.restricted_determinant_s": det_s,
        "rnmp.toeplitz_builds": calls("rnmp.autocorrelation_toeplitz"),
        "rnmp.det_eval_us": _per_call_us(det_s, int(inside_det.sum())),
        "rnmp.alpha_empirical_s": seconds("rnmp.alpha_empirical"),
        "rnmp.pair_min_norm_calls": calls("rnmp.pair_min_norm"),
        "rnmp.pair_min_norm_us": _per_call_us(seconds("rnmp.pair_min_norm"),
                                              calls("rnmp.pair_min_norm")),
        "rnmp.restricted_min_eigenvalue_s":
            seconds("rnmp.restricted_min_eigenvalue"),
        "eigh.eigvalsh_calls": calls("eigh.eigvalsh"),
        "eigh.eigvalsh_us": _per_call_us(seconds("eigh.eigvalsh"),
                                         calls("eigh.eigvalsh")),
        "eigh.jacobi_fallbacks": calls("eigh.jacobi_eigvalsh"),
        "freiman.min_diameter_s": seconds("freiman.min_diameter"),
        "freiman.isomorphism_checks": counts["freiman.isomorphism_checks"],
        "freiman.budget_exhausted": counts["freiman.budget_exhausted"],
        "embedding.verify_embedding_s": seconds("embedding.verify_embedding"),
        "embedding.trial_us": _per_call_us(
            seconds("embedding.verify_embedding"), counts["embedding.trials"]),
        "embedding.sample_structured_s":
            seconds("embedding.sample_structured"),
        "embedding.skipped_near_kernel":
            counts["embedding.skipped_near_kernel"],
        "operators.phi_apply_calls": calls("operators.phi_apply"),
        "operators.phi_apply_s": seconds("operators.phi_apply"),
        "operators.pair_apply_s": seconds("operators.pair_apply"),
        "phase.stability_ratio_calls": calls("phase.stability_ratio"),
        "phase.stability_ratio_us": _per_call_us(
            seconds("phase.stability_ratio"), calls("phase.stability_ratio")),
        "phase.excluded_pairs": counts["phase.excluded_pairs"],
        "recovery.solves": solves,
        "recovery.bpdn_synthesis_s": seconds("recovery.bpdn_synthesis"),
        "recovery.ista_iterations": iters,
        "recovery.iteration_us": _per_call_us(
            seconds("recovery.bpdn_synthesis"), iters),
        "recovery.success_ratio": successes / attempts if attempts else 0.0,
        "recovery.feasible_ratio":
            counts["recovery.feasible"] / solves if solves else 0.0,
        "trace.overhead_s":
            dur.size * span_cost + counter_calls * counter_cost,
    }

"""Reproducible experiment driver.

Configs are flat ``key = value`` text files with a typed schema per
command; unknown and repeated keys are rejected.  ``COMMANDS`` gives each
command its schema and its runner.  A runner returns a ``Report``: the
report fields, the CSV file name and lines of the three commands with a
CSV form, and whether the run passed; ``main`` alone writes files.  It
adds the artifact version and the resolved config, serializes the JSON
before writing anything (a config error, exit 2, writes no file), then
writes ``<command>.json`` and, under ``--format csv``, the CSV file.
Reports are byte-identical for a fixed (config, seed).

``recover-sweep`` decides its planted trials by ``recovery.recovered``.
The trial stacks share nothing and run on one OpenBLAS thread, in fork
worker processes, one per usable CPU, or in this process when only one
would run; the reports are identical either way.

Exit codes: 0 success, 1 when a demod-selftest check fails, 2 config
error (including a value the library rejects and a config too large for
memory), 3 I/O error.

Commands
--------
rnmp-bound      norm multiplicativity constants for (s, f, n)
embed-verify    Monte Carlo distortion of an ensemble on B(M_{s,f})
recover-sweep   planted-recovery success rate over a measurement sweep
phase-stability empirical phase-retrieval stability constant
freiman-search  minimal-diameter isomorphic image of an index set
demod-selftest  adjoint/unitarity/FFT-consistency checks
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, embedding, freiman, phase, recovery, rnmp
from . import operators
from .signals import complex_normals


class ConfigError(ValueError):
    pass


def _parse_int_list(text: str):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc


_REQUIRED = object()


def parse_config(path: Path) -> dict:
    raw = {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    command = raw.pop("command", None)
    if command not in COMMANDS:
        raise ConfigError(
            f"config must set command to one of {tuple(COMMANDS)}")
    schema = {**COMMANDS[command].schema, "seed": (int, 0)}
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    config = {"command": command}
    for key, (conv, default) in schema.items():
        if key in raw:
            try:
                config[key] = conv(raw[key])
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from exc
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        else:
            config[key] = default
    return config


class Report(NamedTuple):
    """What a runner returns; ``main`` writes it."""

    fields: dict  # the JSON report, less artifact_version and config
    csv: tuple | None = None  # (file name, lines) that --format csv adds
    ok: bool = True  # False exits 1, the report still written


def _csv_lines(rows: list):
    """A header of the first row's keys, then each row's values by repr
    (an empty field for None), built only when written."""
    yield ",".join(rows[0])
    for row in rows:
        yield ",".join("" if v is None else repr(v) for v in row.values())


def _run_rnmp_bound(config: dict):
    bounds = rnmp.compute_bounds(config["s"], config["f"], config["n"],
                                 trials=config["trials"],
                                 seed=config["seed"],
                                 det_budget=config["det_budget"])
    row = {
        "s": bounds.s, "f": bounds.f, "n": config["n"],
        "n_effective": bounds.n_effective,
        "alpha_lower": bounds.alpha_lower,
        "alpha_empirical": bounds.alpha_empirical,
        "beta": bounds.beta,
        # null, not Infinity, keeps the report strict JSON
        "gap": (bounds.alpha_empirical / bounds.alpha_lower
                if bounds.alpha_lower else None),
    }
    return Report({"result": row, "certificates": bounds.certificates},
                  ("rnmp-bound.csv", _csv_lines([row])))


def _make_operator(kind: str, m: int, n: int, seed: int):
    if kind == "identity":
        return operators.identity_operator(n)
    if kind == "gaussian":
        return operators.gaussian_operator(m, n, seed)
    if kind == "demodulator":
        return operators.universal_random_demodulator(
            m, n, seed_eta=seed + 1, seed_xi=seed + 2, omega=seed + 3)
    raise ConfigError(f"unknown ensemble {kind!r}")


def _run_embed_verify(config: dict):
    if not 0 < config["delta"] < 1:
        raise ConfigError("delta must lie in (0, 1)")
    m, n = config["m"], config["n"]
    if config["ensemble"] == "identity" and m != n:
        raise ConfigError(f"ensemble identity needs m = n, got m = {m}, "
                          f"n = {n}")
    phi = _make_operator(config["ensemble"], m, n, config["seed"])
    bmap = operators.convolution_lift(n)
    spec = embedding.StructuredSetSpec(n, n, config["s"], config["f"])
    report = embedding.verify_embedding(phi, bmap, spec, config["trials"],
                                        config["seed"])
    return Report({"summary": report.summary(),
                   "delta_target": config["delta"],
                   "within_target": bool(report.delta_hat <= config["delta"])},
                  ("embed-verify-trials.csv", report.to_csv_rows()))


def _recovered(seeds, m: int, n: int, s: int, noise: float) -> int:
    """Planted trials recovered, one per seed: a Gaussian (m, n) matrix, an
    s-sparse u0 and b = A u0 plus noise of norm ``noise``."""
    a = np.empty((len(seeds), m, n), dtype=complex)
    b = np.empty((len(seeds), m), dtype=complex)
    u0 = np.zeros((len(seeds), n), dtype=complex)
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        a[i] = complex_normals(rng, 1, m * n).reshape(m, n) / np.sqrt(2 * m)
        support = rng.choice(n, size=s, replace=False)
        u0[i, support] = complex_normals(rng, 1, s)[0]
        b[i] = a[i] @ u0[i]
        if noise > 0:
            e = complex_normals(rng, 1, m)[0]
            e *= noise / np.linalg.norm(e)
            b[i] += e
    return int(np.count_nonzero(recovery.recovered(a, b, u0, noise)))


def _recovered_task(task) -> int:
    # Pickled by name and ``_recovered`` looked up when called, so a
    # worker runs whatever this module binds to it.
    return _recovered(*task)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _blas_threads():
    """The (get, set) thread-count calls of numpy's bundled OpenBLAS, or a
    pair that does nothing where numpy bundles none."""
    import ctypes
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    paths = sorted(libs.glob("libscipy_openblas64_*.so"))
    lib = ctypes.CDLL(str(paths[0])) if paths else None
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or put is None:
        return (lambda: 1), (lambda count: None)
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def _map_recovered(tasks) -> list:
    """``_recovered`` over the argument tuples ``tasks``, in order, on one
    OpenBLAS thread, the caller's count restored afterwards.  When there
    is more than one task, more than one usable CPU and a fork start
    method, they run in fork worker processes, one per CPU at most, joined
    before this returns, which inherit the thread count; a worker's
    exception is raised here.  Otherwise they run in this process."""
    workers = min(len(tasks), _usable_cpus())
    get, put = _blas_threads()
    before = get()
    put(1)
    try:
        if workers > 1:
            import multiprocessing
            if "fork" in multiprocessing.get_all_start_methods():
                from concurrent.futures import ProcessPoolExecutor
                context = multiprocessing.get_context("fork")
                with ProcessPoolExecutor(workers, mp_context=context) as pool:
                    return list(pool.map(_recovered_task, tasks))
        return [_recovered_task(task) for task in tasks]
    finally:
        put(before)


def _run_recover_sweep(config: dict):
    if config["trials"] < 1:
        raise ConfigError("trials must be at least 1")
    if not config["m_values"] or min(config["m_values"]) < 1:
        raise ConfigError("m_values must list positive integers")
    if not 0 <= config["noise"] < np.inf:
        raise ConfigError("noise must be a finite nonnegative number")
    n = config["n"]
    s = config["sparsity"]
    if not 1 <= s <= n:
        raise ConfigError("need 1 <= sparsity <= n")
    # Every trial draws from its own stream; the trials of one m are then
    # solved together, one lockstep stack per task, tasks in sweep order.
    tasks, owners = [], []
    seq = np.random.SeedSequence(config["seed"])
    for row, (m, child) in enumerate(zip(config["m_values"],
                                         seq.spawn(len(config["m_values"])))):
        seeds = child.spawn(config["trials"])
        chunk = recovery.stack_rows(m, n)
        for lo in range(0, len(seeds), chunk):
            tasks.append((seeds[lo:lo + chunk], m, n, s, config["noise"]))
            owners.append(row)
    successes = [0] * len(config["m_values"])
    for row, count in zip(owners, _map_recovered(tasks)):
        successes[row] += count
    rows = [{"m": m, "success_rate": k / config["trials"],
             "trials": config["trials"], "seed": config["seed"]}
            for m, k in zip(config["m_values"], successes)]
    return Report({"sweep": rows}, ("recover-sweep.csv", _csv_lines(rows)))


def _run_phase_stability(config: dict):
    est = phase.stability_constant_estimate(config["n"], config["trials"],
                                            seed=config["seed"],
                                            variant=config["variant"])
    return Report({"c_hat": est.c_hat, "c_hat_is_upper_estimate": True,
                   "positive": bool(est.c_hat > 1e-8),
                   "worst_pair": est.worst_pair_json()})


def _run_freiman_search(config: dict):
    # The bound first: it rejects sets too large for the float range
    # before a search that would spend its whole budget on them.
    m = len(freiman.IndexSet(config["set"]).elements)
    d = freiman.dimension_bound(m)
    bound = freiman.grynkiewicz_bound(m, d)
    result = freiman.min_diameter_isomorphic_image(config["set"],
                                                   budget=config["budget"])
    return Report({"result": result.to_json(),
                   "grynkiewicz_bound": bound, "grynkiewicz_d": d,
                   "within_bound": bool(result.diameter <= bound)})


def _run_demod_selftest(config: dict):
    n = config["n"]
    m = config["m"] or n // 2 + 1
    seed = config["seed"]
    rng = np.random.default_rng(seed)
    op = _make_operator("demodulator", m, n, seed)
    x = complex_normals(rng, 1, n)[0]
    w = complex_normals(rng, 1, m)[0]
    adjoint_err = abs(np.vdot(w, op.apply(x)) - np.vdot(op.adjoint(w), x))
    adjoint_err /= np.linalg.norm(x) * np.linalg.norm(w)
    dense = op.materialize()
    dense_err = float(np.linalg.norm(dense @ x - op.apply(x))
                      / np.linalg.norm(x))
    signs = operators.sign_diagonal(n, op.descriptor["seed_xi"])
    unitary_err = abs(np.linalg.norm(signs.apply(x)) - np.linalg.norm(x))
    rebuilt = operators.operator_from_descriptor(op.descriptor)
    determinism_ok = bool(np.array_equal(rebuilt.apply(x), op.apply(x)))
    checks = {
        "adjoint_relative_error": float(adjoint_err),
        "adjoint_ok": bool(adjoint_err < 1e-10),
        "fft_vs_dense_error": dense_err,
        "fft_vs_dense_ok": bool(dense_err < 1e-10),
        "sign_diagonal_unitary_error": float(unitary_err),
        "sign_diagonal_unitary_ok": bool(unitary_err < 1e-12),
        "descriptor_determinism_ok": determinism_ok,
    }
    all_ok = all(v for k, v in checks.items() if k.endswith("_ok"))
    return Report({"checks": checks, "all_ok": all_ok}, ok=all_ok)


class Command(NamedTuple):
    schema: dict  # key -> (type converter, default or _REQUIRED)
    run: Callable  # config -> Report


# In README order; every command also takes ``seed`` (default 0).
COMMANDS = {
    "rnmp-bound": Command(
        {"s": (int, _REQUIRED), "f": (int, _REQUIRED), "n": (int, _REQUIRED),
         "trials": (int, 32), "det_budget": (int, 8)},
        _run_rnmp_bound),
    "embed-verify": Command(
        {"ensemble": (str, "gaussian"), "m": (int, _REQUIRED),
         "n": (int, _REQUIRED), "s": (int, 2), "f": (int, 2),
         "trials": (int, 200), "delta": (float, 0.5)},
        _run_embed_verify),
    "recover-sweep": Command(
        {"n": (int, 100), "sparsity": (int, 3),
         "m_values": (_parse_int_list, _REQUIRED), "trials": (int, 20),
         "noise": (float, 0.0)},
        _run_recover_sweep),
    "phase-stability": Command(
        {"n": (int, _REQUIRED), "trials": (int, 1000),
         "variant": (str, phase.VARIANT_S)},
        _run_phase_stability),
    "freiman-search": Command(
        {"set": (_parse_int_list, _REQUIRED), "budget": (int, freiman.BUDGET)},
        _run_freiman_search),
    "demod-selftest": Command(
        {"n": (int, 16), "m": (int, 0)},  # m = 0 means n // 2 + 1
        _run_demod_selftest),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bilinlab",
        description="Reproducible experiments for sparse bilinear "
                    "inverse problems")
    parser.add_argument("--config", required=True, help="key = value file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=".", help="report directory")
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    args = parser.parse_args(argv)
    try:
        config = parse_config(Path(args.config))
        if args.seed is not None:
            config["seed"] = args.seed
        if config["seed"] < 0:
            raise ConfigError("seed must be nonnegative")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    name = config["command"]
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        if not out.is_dir():
            raise OSError("not a directory")
        report = COMMANDS[name].run(config)
        payload = {"artifact_version": __version__, "config": config,
                   **report.fields}
        # Serialized first: a report that would hold NaN writes no file.
        files = {f"{name}.json": (json.dumps(payload, sort_keys=True,
                                             indent=2, allow_nan=False)
                                  + "\n").encode()}
        if args.format == "csv" and report.csv:
            csv_name, lines = report.csv
            files[csv_name] = ("\n".join(lines) + "\n").encode()
        for file_name, data in files.items():
            (out / file_name).write_bytes(data)
        return 0 if report.ok else 1
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

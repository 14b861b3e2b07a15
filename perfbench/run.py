"""bilinlab benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload {search,montecarlo,recovery} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload's four jobs (see
``workloads.py``) run one after another in this process, pass after pass,
for about ``--seconds``.  Pass ``p`` derives every job's inputs
from the seed ``1000 * seed + p``, so one run averages over several inputs
and the same seed always gives the same inputs.  Every job's report is
checked; the last line of standard output is one JSON object:

    {"correct": ..., "attempted": jobs run, "failed": jobs failed,
     "metrics": {name: {"value": ..., "unit": ...}}}

``--trace 0`` reports the end-to-end metrics (medians over passes); job
times are gated in units of a calibration kernel timed between the jobs.
``--trace 1`` repeats traced passes on pass 0's inputs and reports the
per-layer metrics of ``spans.py``, the estimated tracing overhead and how
many reports at seed 0 are byte-identical to ``reference_reports.json``.
The spans are written to ``perfbench/_out/``.
"""

import os

# One BLAS / OpenMP thread: the benchmark process is the only client, and a
# thread pool would compete with it for the two cores it is sized for.
# This must happen before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import monotonic, perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
REFERENCE = HERE / "reference_reports.json"
WORKLOADS = ("search", "montecarlo", "recovery")
SLOTS = ("job1", "job2", "job3", "job4")
SETUP_PROBES = 3  # per group; one group after each pass
MIN_SETUP_GROUPS = 5
# setup_s is reported at the machine speed where calibration_kernel takes
# this long, so that the machine's drift does not move it.
REFERENCE_KERNEL_S = 0.05
MAX_PASSES = 1000


def job_seed(seed: int, pass_index: int) -> int:
    return MAX_PASSES * seed + pass_index


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Shrinks every job for the self-test; the code paths stay the same.
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    # Set-up probe: import and write pass 0's inputs, then exit.
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-reference", action="store_true",
                   help="store digests of the seed-0 reports")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def import_program():
    """Import bilinlab from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "bilinlab" / "__init__.py").is_file():
        raise ImportError(f"no bilinlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bilinlab
    if Path(bilinlab.__file__).resolve().parent != SRC / "bilinlab":
        raise ImportError(f"bilinlab imported from {bilinlab.__file__}")


def calibration_kernel() -> float:
    """Fixed benchmark-owned work, about 50 ms: an interpreter loop plus
    small numpy calls, the same mix as the jobs.  No program code runs in
    it, so only the machine's speed moves its time."""
    acc = 0.0
    for i in range(225000):
        acc += i * i % 7
    x = np.arange(64, dtype=complex)
    m = np.eye(8, dtype=complex)
    for _ in range(1100):
        x = np.fft.ifft(np.fft.fft(x))
        acc += abs(np.linalg.det(m + x[:8, None]))
    return acc


def calibration_seconds() -> float:
    start = perf_counter()
    calibration_kernel()
    return perf_counter() - start


class PassResult:
    def __init__(self):
        self.times: list = []
        self.calibration: list = [calibration_seconds()]
        self.reports: dict = {}
        self.failures: list = []
        self.recovered = (0, 0)

    def add_time(self, seconds: float) -> None:
        self.times.append(seconds)
        self.calibration.append(calibration_seconds())

    @property
    def wall(self) -> float:
        return sum(self.times)

    @property
    def costs(self) -> list:
        """Each job's time over the mean of the calibration kernel runs
        just before and just after it."""
        return [2 * t / (a + b) for t, a, b in
                zip(self.times, self.calibration, self.calibration[1:])]


def prepare_pass(jobs, seed: int, workdir: Path) -> list:
    workdir.mkdir(parents=True, exist_ok=True)
    return [job.prepare(seed, workdir) for job in jobs]


def run_pass(jobs, seed: int, workdir: Path) -> PassResult:
    """Run every job once on the inputs of ``seed``; time only the jobs."""
    return execute_pass(jobs, prepare_pass(jobs, seed, workdir))


def execute_pass(jobs, runs) -> PassResult:
    result = PassResult()
    ok, attempts = 0, 0
    for job, run in zip(jobs, runs):
        start = perf_counter()
        try:
            raw = run()
        except Exception:  # a failing job is counted, not fatal
            result.add_time(perf_counter() - start)
            result.failures.append((job.name, traceback.format_exc()))
            continue
        result.add_time(perf_counter() - start)
        try:
            data, rep = job.report(raw)
            problems = job.check(rep)
        except Exception:
            problems, data = [traceback.format_exc()], None
        else:
            got, tried = job.recoveries(rep)
            ok, attempts = ok + got, attempts + tried
        if problems:
            result.failures.append((job.name, "; ".join(problems)))
        result.reports[job.name] = data
    result.recovered = (ok, attempts)
    return result


def setup_probe(args) -> float:
    """Time from starting one fresh process to the first job's inputs being
    ready in it (interpreter, imports, input generation).  The child prints
    the moment it is ready, so its teardown is not timed; ``monotonic`` is
    CLOCK_MONOTONIC on Linux, one clock for every process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    start = monotonic()
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    out = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True,
                         text=True).stdout
    ready = float(out.split()[-1]) - start
    if not 0 < ready < monotonic() - start:
        raise RuntimeError(f"set-up probe reported {ready} s")
    return ready


def setup_group(args) -> tuple:
    """The fastest of ``SETUP_PROBES`` probes, in seconds and over the mean
    calibration kernel time just before and just after them.  Other load
    only ever makes a probe slower."""
    before = calibration_seconds()
    fastest = min(setup_probe(args) for _ in range(SETUP_PROBES))
    return fastest, 2 * fastest / (before + calibration_seconds())


def digests(reports: dict) -> dict:
    return {name: hashlib.sha256(data).hexdigest() if data else None
            for name, data in reports.items()}


def reports_identical(workload: str, reports: dict) -> int:
    try:
        reference = json.loads(REFERENCE.read_text())[workload]
    except (OSError, KeyError, ValueError):
        return 0
    return sum(reference.get(k) == v and v is not None
               for k, v in digests(reports).items())


def print_failures(passes):
    for result in passes:
        for name, why in result.failures:
            print(f"FAILED {name}: {why}", file=sys.stderr)


def more_time(start: float, seconds: float, done: int) -> bool:
    """Start another pass if, at the mean pass length so far, the run ends
    closer to ``seconds`` with it than without it."""
    elapsed = perf_counter() - start
    return done == 0 or elapsed + elapsed / done / 2 < seconds


def end_to_end(args, jobs) -> tuple:
    # The set-up probes after each pass spread over the run, so they see
    # the same machine as the passes.
    passes, setups = [], []
    start = perf_counter()
    while more_time(start, args.seconds, len(passes)) \
            and len(passes) < MAX_PASSES:
        passes.append(run_pass(jobs, job_seed(args.seed, len(passes)),
                               OUT / args.workload))
        setups.append(setup_group(args))
    while len(setups) < MIN_SETUP_GROUPS:
        setups.append(setup_group(args))
    print_failures(passes)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes "
          f"in {perf_counter() - start:.1f} s; medians over passes")
    (OUT / f"passes-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps([{"jobs": [job.name for job in jobs], "seconds": r.times,
                     "calibration_s": r.calibration} for r in passes]))
    calibration = statistics.median(c for r in passes for c in r.calibration)
    print(f"  calibration kernel: median {calibration * 1e3:.2f} ms")
    print(f"  wall_s = {statistics.median(r.wall for r in passes):.4f} s "
          "(printed only)")
    print(f"  set-up: median {statistics.median(s for s, _ in setups):.4f} s "
          "as measured (printed only)")
    setup = statistics.median(c for _, c in setups) * REFERENCE_KERNEL_S
    metrics = {"setup_s": (setup, "s"),
               "wall_cal": (statistics.median(sum(r.costs) for r in passes),
                            "cal")}
    for i, (slot, job) in enumerate(zip(SLOTS, jobs)):
        times = [r.times[i] for r in passes]
        costs = [r.costs[i] for r in passes]
        metrics[f"{slot}_cal"] = (statistics.median(costs), "cal")
        print(f"  {slot} = {job.name}: median {statistics.median(times):.4f} s"
              " of " + " ".join(f"{t:.4f}" for t in times) + "; in cal: "
              + " ".join(f"{c:.2f}" for c in costs))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics["peak_rss_mb"] = (rss, "MB")
    return passes, metrics


def per_layer(args, jobs) -> tuple:
    import spans

    tracer = spans.Tracer()
    workdir = OUT / args.workload
    # Untraced, so the reports compared with the reference are the
    # program's own.
    passes = [run_pass(jobs, job_seed(0, 0), workdir)]
    layer = []
    start = perf_counter()
    while more_time(start, args.seconds, len(layer)):
        first, before = len(tracer), Counter(tracer.counts)
        runs = prepare_pass(jobs, job_seed(args.seed, 0), workdir)
        with spans.instrument(tracer):
            traced = execute_pass(jobs, runs)
        counts = Counter(tracer.counts)
        counts.subtract(before)
        layer.append(spans.layer_metrics(tracer, first, counts,
                                         traced.recovered,
                                         spans.wrapper_costs()))
        passes.append(traced)
    print_failures(passes)
    OUT.mkdir(parents=True, exist_ok=True)
    trace_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(trace_file)
    print(f"workload {args.workload}, seed {args.seed}: {len(layer)} traced "
          f"passes, {len(tracer)} spans written to {trace_file}")
    metrics = {}
    for name in layer[0]:
        value = statistics.median(m[name] for m in layer)
        unit = ("s" if name.endswith("_s") else "us" if name.endswith("_us")
                else "ratio" if name.endswith("_ratio") else "count")
        metrics[name] = (value, unit)
    metrics["cli.reports_identical"] = (
        reports_identical(args.workload, passes[0].reports), "count")
    return passes, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    import workloads

    jobs = workloads.workload(args.workload, tiny=args.tiny)
    if args.setup_only:
        prepare_pass(jobs, job_seed(args.seed, 0),
                     OUT / f"{args.workload}-setup")
        print(monotonic())
        return 0
    if args.record_reference:
        result = run_pass(jobs, job_seed(0, 0), OUT / args.workload)
        if result.failures:
            print_failures([result])
            return 1
        table = (json.loads(REFERENCE.read_text()) if REFERENCE.exists()
                 else {})
        table[args.workload] = digests(result.reports)
        REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True)
                             + "\n")
        return 0
    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    passes, metrics = (per_layer if args.trace else end_to_end)(args, jobs)
    attempted = sum(len(r.times) for r in passes)
    failed = sum(len(r.failures) for r in passes)
    print(f"  fail_ratio = {failed}/{attempted} = {failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

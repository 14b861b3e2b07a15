"""The benchmark's span tracer patches bilinlab attributes by name.

``perfbench/spans.py`` wraps module functions and methods for the length
of a ``with instrument(...)`` block; a renamed or deleted name there makes
every traced benchmark run fail.  Entering the block here catches that in
the regular test suite.
"""

import importlib.util
from pathlib import Path

from bilinlab import cli, embedding, freiman, operators, rnmp

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_patches_every_named_attribute():
    spans = _load_spans()
    originals = (cli.main, rnmp.restricted_determinant, freiman._sum_pattern)
    with spans.instrument(spans.Tracer()) as tracer:
        assert cli.main is not originals[0]
        assert freiman._sum_pattern is not originals[2]
        rnmp.restricted_determinant(3, 2, 1)
    assert (cli.main, rnmp.restricted_determinant,
            freiman._sum_pattern) == originals
    assert "rnmp.restricted_determinant" in tracer.names
    assert len(tracer) >= 1


def test_traced_recover_sweep_runs(tmp_path):
    # The recovery workload runs recover-sweep under the tracer; a solver
    # entry point that breaks there fails here as well.
    spans = _load_spans()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = recover-sweep\nn = 20\nsparsity = 2\n"
                   "m_values = 6, 12\ntrials = 2\nnoise = 0.001\n")
    with spans.instrument(spans.Tracer()) as tracer:
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "recover-sweep.json").is_file()
    assert "cli.main" in tracer.names


def test_traced_embed_verify_stacks(tmp_path):
    # The montecarlo workload runs embed-verify under the tracer: the
    # stacked trials must still call Phi and the lift through the patched
    # attributes, once per stack, and never the one-row sampler.
    spans = _load_spans()
    n, m = 64, 56
    step = embedding.stack_trials(
        operators.gaussian_operator(m, n, 0), operators.convolution_lift(n),
        embedding.StructuredSetSpec(n, n, 2, 2))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"command = embed-verify\nensemble = gaussian\nm = {m}\n"
                   f"n = {n}\ntrials = {2 * step + 1}\n")
    with spans.instrument(spans.Tracer()) as tracer:
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    calls = [tracer.names[i] for i in tracer.name_id]
    assert calls.count("operators.phi_apply") == 3
    assert calls.count("operators.pair_apply") == 3
    assert calls.count("embedding.verify_embedding") == 1
    assert "embedding.sample_structured" not in calls

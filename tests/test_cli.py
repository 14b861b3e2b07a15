import hashlib
import json
import math
from pathlib import Path

import pytest

from bilinlab import cli


def _write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_config_happy_path(tmp_path):
    cfg = _write_config(tmp_path, """
    # comment line

    command = rnmp-bound
    s = 2
    f = 2
    n = 8
    """)
    config = cli.parse_config(cfg)
    assert config["command"] == "rnmp-bound"
    assert config == {"command": "rnmp-bound", "s": 2, "f": 2, "n": 8,
                      "trials": 32, "det_budget": 8, "seed": 0}


@pytest.mark.parametrize("body", [
    "s = 2\nf = 2\nn = 8\n",                      # missing command
    "command = mystery\nn = 8\n",                  # unknown command
    "command = rnmp-bound\ns = 2\nf = 2\n",        # missing required key
    "command = rnmp-bound\ns = 2\nf = 2\nn = 8\nbogus = 1\n",
    "command = rnmp-bound\ns = two\nf = 2\nn = 8\n",
    "command = rnmp-bound\njust a line\n",
])
def test_parse_config_rejects(tmp_path, body):
    cfg = _write_config(tmp_path, body)
    with pytest.raises(cli.ConfigError):
        cli.parse_config(cfg)


def test_main_config_error_exit_code(tmp_path):
    cfg = _write_config(tmp_path, "command = rnmp-bound\n")
    assert cli.main(["--config", str(cfg)]) == 2
    assert cli.main(["--config", str(tmp_path / "absent.cfg")]) == 2


@pytest.mark.parametrize("body", [
    "command = rnmp-bound\ns = 5\nf = 2\nn = 4\n",      # s > n
    "command = phase-stability\nn = 3\nvariant = bogus\n",
    "command = recover-sweep\nn = 10\nsparsity = 20\nm_values = 4\n",
    "command = freiman-search\nset = 1,1\n",             # repeated element
    "command = embed-verify\nm = 4\nn = 4\ntrials = 0\n",  # no trials
    "command = freiman-search\nset = 0,1\nset = 0,2\n",  # duplicate key
    "command = recover-sweep\nm_values = 8\ntrials = 0\n",
    "command = recover-sweep\nm_values = 0\n",
    "command = recover-sweep\nm_values =\n",                # empty list
    "command = recover-sweep\nm_values = 8\nnoise = -1\n",
    "command = recover-sweep\nm_values = 8\nnoise = inf\n",
    "command = recover-sweep\nm_values = 8\nnoise = nan\n",
    "command = phase-stability\nn = 0\n",
    "command = phase-stability\nn = 1\n",  # S at n = 1: only sign flips
    "command = embed-verify\nm = 4\nn = 4\ntrials = -3\n",
    "command = recover-sweep\nm_values = 8\nsparsity = 0\n",
    "command = freiman-search\nset = 0,1,3\nbudget = -1\n",
    "command = rnmp-bound\ns = 1\nf = 1\nn = 0\n",      # n = 0
    "command = rnmp-bound\ns = 5\nf = 1\nn = 2\n",      # s > n with f = 1
    "command = embed-verify\nm = 4\nn = 4\ndelta = 2\n",   # vacuous target
    "command = embed-verify\nm = 4\nn = 4\ndelta = -1\n",
    # identity measures every entry: m must equal n
    "command = embed-verify\nensemble = identity\nm = 8\nn = 12\n",
    # 98^196 as a float overflowed; k = 50 exceeds the capped dimension 16
    "command = rnmp-bound\ns = 50\nf = 50\nn = 60\n",
    "command = rnmp-bound\ns = 17\nf = 17\nn = 40\n",  # k = 17 > 16
    "command = rnmp-bound\ns = 1\nf = 3\nn = 8\ndet_budget = 0\n",
    # at most 64 restarts per support run, so 36 of these never would
    "command = rnmp-bound\ns = 2\nf = 2\nn = 8\ndet_budget = 100\n",
])
def test_main_rejected_value_exit_code(tmp_path, capsys, body):
    cfg = _write_config(tmp_path, body)
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not list(out.glob("*.json"))


@pytest.mark.parametrize("m", [89, 100])
def test_freiman_search_bound_overflow_exit_code(tmp_path, capsys, m):
    # The bound is inf at m = 89 and its arithmetic overflows at m = 100.
    squares = ", ".join(str(i * i) for i in range(m))
    cfg = _write_config(tmp_path,
                        f"command = freiman-search\nset = {squares}\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: the Grynkiewicz bound for m = {m} exceeds the float "
        "range\n")
    assert not list(out.glob("*.json"))


def test_rnmp_bound_names_the_dimension_cap(tmp_path, capsys, monkeypatch):
    # Rejected before the empirical search, which would otherwise run first.
    from bilinlab import rnmp

    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(rnmp, "alpha_empirical", no_search)
    cfg = _write_config(tmp_path,
                        "command = rnmp-bound\ns = 17\nf = 17\nn = 40\n")
    assert cli.main(["--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: min(s, f) = 17 exceeds the Toeplitz dimension cap "
        "MAX_TOEPLITZ_DIM = 16\n")


def _readme_configs():
    """The README's ```ini block, one config per ``command =`` line."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    configs = []
    for line in block.splitlines():
        if line.startswith("command ="):
            configs.append([])
        if configs:
            configs[-1].append(line)
    return ["\n".join(lines) + "\n" for lines in configs]


def test_readme_has_one_config_per_command():
    assert [cfg.split()[2] for cfg in _readme_configs()] == list(cli.COMMANDS)


# sha256 of each README config's JSON report at seeds 0 and 1, recorded
# with numpy 2.4.6.  A change that moves a report updates this table and
# lists the moved values.
README_REPORT_SHA256 = {
    "rnmp-bound": (  # k = 2 closed form, sparse-lag kernel, gap
        "8a33a5bb87a367e123d557171292eeca7f47b0368e884c8e3ac0bc7ad209386e",
        "bda6a4b6913bc8e8dc33de6a4827d66a64e0082700760c0f0fe697bc384a8e72",
    ),
    "embed-verify": (
        "2072512f6dca51d2eff2776f26e3beadc31daab237c0116e7ab18d2ae18c8e9c",
        "9876d5783e75332b16e4e3bc555c967c3b25d658f4fd17af3d15726539246da9",
    ),
    "recover-sweep": (  # seed 1: m = 8 rate 0.1 -> 0.3, minimax certificate
        "014ac5eb6d7f3f2549459b8d22ecfbf9f71f2f1100f3aa4e7d9d9fbd750a58bb",
        "5e7a2594936875613fc6b3446dfe426b9d7c13756df562dbe03f077dce5fe8be",
    ),
    "phase-stability": (  # stall rule relative to the value
        "a93ab17a4707a7bc7e5d1b68a7877fcb75ba9582554c0d0fb5bde65f06b4d5c0",
        "3e745cf2cb461eaf14202ebb17b499e8a85536d977891f86b7392795785cb88f",
    ),
    "freiman-search": (  # config.budget 1000000 -> 4000000, pair units
        "04153ea3121ee80f752f3926bde9b9b8b4369d9cc349d9a084bd7087a7a3b198",
        "b11ac0b316e08d17ba36b6c66c155d845c816c62a907448008b83547626159bd",
    ),
    "demod-selftest": (
        "69c96d6844dac1f0d31c8fd3301faa4c0df9f62aaf6a21ca3fe3ad9520bab041",
        "b4fe7cb8c5ef022bf47baa3dd9a56b9c5c0bae3618a69b01d81d38e7ce9364d9",
    ),
}


# The CSV file that --format csv adds for the README configs of the three
# commands with a CSV form (the others write only their JSON), and its
# sha256 at seeds 0 and 1, recorded with numpy 2.4.6 before the runners
# stopped writing their own files.
README_CSV_SHA256 = {
    "rnmp-bound": ("rnmp-bound.csv", (  # the gap column
        "4b440d116a247bc78696baef4e51e8203dbd1ae204106b679604d4baf5a1adfc",
        "81de599c3e6c68e9f2b73b4e7168fb193b8c5add63f227bec82e3a207e81c689",
    )),
    "embed-verify": ("embed-verify-trials.csv", (
        "6ea4114ec9f0c09a4352aec84b9a182fdc2fa7304334a8502f3b69f8d55c35f5",
        "b52d9b7351aabe4f9cde9c25b0812c50270596a34c2ad38437a405bf6a386509",
    )),
    "recover-sweep": ("recover-sweep.csv", (  # seed 1: m = 8 rate 0.3
        "464e4dccc9c1026eb213f0ec745ed3e2b60a7b96af1282422490917fbfbea5e2",
        "c7ccc16a3f374203b64e922ab94f257ab884db182a2e5623e10d751f24ce4118",
    )),
}


@pytest.mark.parametrize("body", _readme_configs(),
                         ids=lambda body: body.split()[2])
def test_readme_config_runs(tmp_path, body):
    def reject(constant):
        raise ValueError(f"report holds {constant}")

    cfg = _write_config(tmp_path, body)
    command = body.split()[2]
    csv, csv_sha256 = README_CSV_SHA256.get(command, (None, None))
    for seed, want in enumerate(README_REPORT_SHA256[command]):
        for fmt in ("json", "csv"):
            out = tmp_path / f"{fmt}{seed}"
            assert cli.main(["--config", str(cfg), "--out", str(out),
                             "--seed", str(seed), "--format", fmt]) == 0
            report = out / f"{command}.json"
            written = {report.name}
            if fmt == "csv" and csv is not None:
                written.add(csv)
                assert hashlib.sha256((out / csv).read_bytes()).hexdigest() \
                    == csv_sha256[seed]
            assert {p.name for p in out.iterdir()} == written
            json.loads(report.read_text(), parse_constant=reject)
            assert hashlib.sha256(report.read_bytes()).hexdigest() == want


def test_nan_report_writes_no_file(tmp_path, capsys, monkeypatch):
    # The JSON is serialized before any file is written.
    import dataclasses

    from bilinlab import embedding
    verify = embedding.verify_embedding
    monkeypatch.setattr(embedding, "verify_embedding", lambda *args: (
        dataclasses.replace(verify(*args), delta_hat=math.nan)))
    cfg = _write_config(tmp_path, "command = embed-verify\nm = 8\nn = 8\n"
                        "trials = 5\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out),
                     "--format", "csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_main_io_error_exit_code(tmp_path):
    cfg = _write_config(tmp_path, "command = demod-selftest\nn = 8\n")
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    code = cli.main(["--config", str(cfg), "--out", str(blocker)])
    assert code == 3


def test_demod_selftest(tmp_path):
    cfg = _write_config(tmp_path, "command = demod-selftest\nn = 16\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "demod-selftest.json").read_text())
    assert payload["all_ok"]
    assert payload["checks"]["adjoint_ok"]
    assert payload["checks"]["fft_vs_dense_ok"]
    assert payload["config"]["m"] == 0  # config echo keeps the raw value


def test_demod_selftest_failed_check_exits_one(tmp_path, monkeypatch):
    from bilinlab import operators
    monkeypatch.setattr(operators, "operator_from_descriptor",
                        lambda descriptor: operators.identity_operator(16))
    cfg = _write_config(tmp_path, "command = demod-selftest\nn = 16\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out),
                     "--format", "csv"]) == 1
    assert [p.name for p in out.iterdir()] == ["demod-selftest.json"]
    payload = json.loads((out / "demod-selftest.json").read_text())
    assert not payload["all_ok"]
    assert not payload["checks"]["descriptor_determinism_ok"]


def test_rnmp_bound_equality_row(tmp_path):
    cfg = _write_config(
        tmp_path, "command = rnmp-bound\ns = 1\nf = 3\nn = 8\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "rnmp-bound.json").read_text())
    row = payload["result"]
    assert row["alpha_lower"] == 1.0
    assert row["alpha_empirical"] == 1.0
    assert row["beta"] == 1.0
    assert payload["certificates"]["beta"]["method"].startswith("closed form")


def test_rnmp_bound_reports_gap(tmp_path, monkeypatch):
    # gap = alpha_empirical / alpha_lower, and null (strict JSON, not
    # Infinity) when the lower value is 0.
    from bilinlab import rnmp

    def result(out):
        assert cli.main(["--config", str(cfg), "--out", str(out),
                         "--format", "csv"]) == 0
        text = (out / "rnmp-bound.json").read_text()
        return json.loads(text, parse_constant=pytest.fail)["result"]

    cfg = _write_config(
        tmp_path, "command = rnmp-bound\ns = 2\nf = 3\nn = 6\ntrials = 4\n")
    row = result(tmp_path / "a")
    assert row["gap"] == row["alpha_empirical"] / row["alpha_lower"]
    header, values = (tmp_path / "a" / "rnmp-bound.csv").read_text().split()
    assert header.endswith(",gap")
    assert values.endswith("," + repr(row["gap"]))
    monkeypatch.setattr(rnmp, "alpha_lower_bound", lambda *args: 0.0)
    row = result(tmp_path / "b")
    assert row["alpha_lower"] == 0.0
    assert row["gap"] is None
    # The CSV row leaves the field empty.
    header, values = ((tmp_path / "b" / "rnmp-bound.csv").read_text()
                      .splitlines())
    assert values.split(",") == [repr(row[key]) for key in
                                 header.split(",")[:-1]] + [""]


def test_embed_verify_identity(tmp_path):
    cfg = _write_config(tmp_path, """
    command = embed-verify
    ensemble = identity
    m = 12
    n = 12
    trials = 40
    """)
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out),
                     "--format", "csv"]) == 0
    payload = json.loads((out / "embed-verify.json").read_text())
    assert payload["summary"]["delta_hat"] <= 1e-10
    assert payload["within_target"]
    csv_text = (out / "embed-verify-trials.csv").read_text()
    assert csv_text.startswith("trial_id,ratio,support_x,support_y")
    assert len(csv_text.strip().splitlines()) == 41


@pytest.mark.parametrize("seed", [0, 1, 1000])
@pytest.mark.parametrize("ensemble", ["gaussian", "demodulator"])
def test_embed_verify_benchmark_configs(tmp_path, ensemble, seed):
    # The benchmark's embed-gauss and embed-demod jobs and their check.
    cfg = _write_config(tmp_path, f"command = embed-verify\nensemble = "
                        f"{ensemble}\nm = 56\nn = 64\ntrials = 2500\n"
                        f"seed = {seed}\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "embed-verify.json").read_text())
    summary = payload["summary"]
    assert payload["within_target"]
    assert summary["min_ratio"] <= 1.0 <= summary["max_ratio"]
    assert (summary["valid_trials"] + summary["skipped_near_kernel"]
            == summary["trials"] == 2500)


# The benchmark's configs, and the sha256 of each JSON report at the job
# seeds 0, 1 and 1000, recorded with numpy 2.4.6.  They reach code the
# README configs do not: the sampled alpha_empirical pairs, the k = 3
# determinant search, the S' variant, and recover-sweep at sparsity 5 and
# with noise.  The four recover-sweep digests were recorded before the
# exact-data certificates: at these seeds the certificates moved no rate.
BENCHMARK_REPORT_SHA256 = {
    "rnmp-det": (
        "command = rnmp-bound\ns = 3\nf = 3\nn = 12\ndet_budget = 2\n"
        "trials = 4\n",
        (  # determinant lags summed by keyed_sums (alpha_lower, gap moved)
            "3c223a6e8b1dc2dc54abe99182bfeb4ebba72f18b71dbbab1e7723367e7f4003",
            "b22e01dab0ac66d4dece1d19349bef385831af363b1f687d2e1583be1026f17e",
            "2f30644296ca9e0ec2c119c32e1c7cb5c56a27bfbe7798642e69d2df69f24f2a",
        )),
    "rnmp-altmin": (
        "command = rnmp-bound\ns = 2\nf = 4\nn = 16\ndet_budget = 1\n"
        "trials = 500\n",
        (  # k = 2 closed form, sparse-lag kernel, gap
            "a59a7fa80ceae5e44c1e39ea01bcdd60d6a2f8d91cf0b387c294d58788b7e942",
            "6345e8fd54fb21290311bd5febebdceec03e5787491d1c5a927832b7d16c8bd3",
            "c945e6ce5df0fd8c0ebecde754bb057602c492af9f28b549f0dd1ed0151fcbce",
        )),
    "phase": (
        "command = phase-stability\nn = 3\ntrials = 8000\n",
        (  # stall rule relative to the value
            "6bd08821b9121d4dcbe08108ade6d7cb2e6a6f1f2c323b252d7373f2c020b797",
            "c89a5f43cb708e8f7ed87dd0cde16f820f6b70dd973a68240fc3d80a3b789148",
            "6260419287cb7a69190fd33e8046488f418f351cbfe3fd7a8632f4123a638859",
        )),
    "phase-prime": (
        "command = phase-stability\nn = 3\nvariant = S_prime_4n-1\n"
        "trials = 8000\n",
        (  # stall rule relative to the value
            "07e91e1444fef1107e5d36081ade882e7e1b6683e2adcf8db10b1d068ad3758d",
            "6af00eb7acc5d160530e6a0939997fc7080069a876211c1d64a840efe94bca1d",
            "770209af2f871be69ea4b74c19b63e9f0d7667ae5e9e9f7f0bcd7fa12af482b6",
        )),
    "embed-gauss": (
        "command = embed-verify\nensemble = gaussian\nm = 56\nn = 64\n"
        "trials = 2500\n",
        (
            "8e4d32ef1b956ea1ffcd8294022be22498681b92d840e6448b63ed1513b165fb",
            "d0eecd78610104cbff855042fe753a94606bd916adaee8e32df0f069c3d91a5f",
            "34d4f0f38edc9fbdf77732d7eed8155136c0ca3dd6fa84c844bd23235b47a417",
        )),
    "embed-demod": (
        "command = embed-verify\nensemble = demodulator\nm = 56\nn = 64\n"
        "trials = 2500\n",
        (
            "1ddeddbab87d28fb6a757618504d6d4ad5b858dc33dfca3ba6b9de291432bf17",
            "53ad0715e8911a5833ffd2c57e0ee3f451bcfcb71cdfcdf7ed7f581e0b78286b",
            "634abca3fd474aaff4de67c95d7be47d3fc88124e99ad65f95ab8002295db80f",
        )),
    "recover-exact": (
        "command = recover-sweep\nn = 100\nsparsity = 3\n"
        "m_values = 8, 16, 48\ntrials = 5\n",
        (
            "ee841aa52acea66e53168079c9945e08986ea4994aafda9a521f9be5b118ef8f",
            "825044f51dacbca8d6bd0dd49c027985efddac0456f7f7e742b254a1d88eb367",
            "5ac652e4f30ee43c82bd2e639c1dd51de7a6a7786e0c0bb4f8ad8eaa2bc2fc97",
        )),
    "recover-noisy": (
        "command = recover-sweep\nn = 100\nsparsity = 3\n"
        "m_values = 32, 48\nnoise = 0.0001\ntrials = 8\n",
        (
            "c1da86d555ffaa1b12e827539d887203653b495c414d6cedac733055e03c1fa5",
            "e058ed8f98d4e724acc293e200855825e73d956306bf7112e3d5344f1013a5ca",
            "dbf283f6a836ba163f19c79be371a553b867acfeee0e421d43eb73372fa1f872",
        )),
    "recover-exact-s5": (
        "command = recover-sweep\nn = 100\nsparsity = 5\n"
        "m_values = 12, 64\ntrials = 10\n",
        (
            "355b2823ed9e8f24c325e3b8767338146a4aaa853c745231d4969a58c8ef6b15",
            "3439205931aea6a3d8b6d4ceb166c7c655a3d5d39ef79ce20ed3eb622cb38ad8",
            "df461ab6dfffdb69924d1b465f07902f3cf2d8bd9568732b2208f961904cf1dc",
        )),
    "recover-noisy-s5": (
        "command = recover-sweep\nn = 100\nsparsity = 5\n"
        "m_values = 48, 64\nnoise = 0.0001\ntrials = 10\n",
        (
            "28e82e8364e2f51e8150d73a702e4f0d797917776911ad4699849749f1644419",
            "43dce72170091db1b2adce1bd40e09f34d382f1ae038cc14d15916f88d0f0f42",
            "da8c4aadd2ab5a2328445165da7043b5c787d2ecde3c2f8e5f5ea9795ff26252",
        )),
}


@pytest.mark.parametrize("seed_index, seed", enumerate([0, 1, 1000]))
@pytest.mark.parametrize("job", BENCHMARK_REPORT_SHA256)
def test_benchmark_config_reports_pinned(tmp_path, monkeypatch, job,
                                        seed_index, seed):
    # recover-sweep solves in this process: fork workers give identical
    # reports (test_recover_sweep_matches_per_trial_solves), but with a
    # multithreaded BLAS they can take seconds to a minute per sweep.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    body, want = BENCHMARK_REPORT_SHA256[job]
    cfg = _write_config(tmp_path, body + f"seed = {seed}\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
    (report,) = out.iterdir()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == want[seed_index]


def test_freiman_search_command(tmp_path):
    cfg = _write_config(tmp_path, "command = freiman-search\nset = 0,1,10\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "freiman-search.json").read_text())
    assert payload["result"]["diameter"] == 3
    assert payload["result"]["verified_isomorphism"]


def test_freiman_search_sidon_set_within_bound(tmp_path):
    # {0, 1, 3} is a Sidon set: Freiman dimension 2 = m - 1
    cfg = _write_config(tmp_path, "command = freiman-search\nset = 0,1,3\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "freiman-search.json").read_text())
    assert payload["result"]["diameter"] == 3
    assert payload["grynkiewicz_d"] == 2
    assert payload["grynkiewicz_bound"] == 13.0
    assert payload["within_bound"]


def test_recover_sweep_csv(tmp_path):
    cfg = _write_config(tmp_path, """
    command = recover-sweep
    n = 30
    sparsity = 2
    m_values = 8, 16
    trials = 4
    """)
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out),
                     "--format", "csv"]) == 0
    lines = (out / "recover-sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "m,success_rate,trials,seed"
    assert len(lines) == 3
    payload = json.loads((out / "recover-sweep.json").read_text())
    rates = [row["success_rate"] for row in payload["sweep"]]
    assert all(0.0 <= r <= 1.0 for r in rates)


def test_recover_sweep_readme_rates(tmp_path):
    cfg = _write_config(tmp_path, "command = recover-sweep\nn = 100\n"
                        "sparsity = 3\nm_values = 8, 16, 24, 32\n"
                        "trials = 20\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "recover-sweep.json").read_text())
    assert [row["success_rate"] for row in payload["sweep"]] == [
        0.15, 0.95, 1.0, 1.0]


def _per_trial_sweep(config):
    """Success rates of recover-sweep solved one trial at a time, each
    trial drawn from its own child stream in spawn order."""
    import numpy as np

    from bilinlab import recovery
    n, s, noise = config["n"], config["sparsity"], config["noise"]
    rates = []
    seq = np.random.SeedSequence(config["seed"])
    for m, child in zip(config["m_values"],
                        seq.spawn(len(config["m_values"]))):
        successes = 0
        for trial_seed in child.spawn(config["trials"]):
            rng = np.random.default_rng(trial_seed)
            a = (rng.standard_normal((m, n))
                 + 1j * rng.standard_normal((m, n))) / np.sqrt(2 * m)
            support = rng.choice(n, size=s, replace=False)
            u0 = np.zeros(n, dtype=complex)
            u0[support] = rng.standard_normal(s) + 1j * rng.standard_normal(s)
            b = a @ u0
            if noise > 0:
                e = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                b = b + e * (noise / np.linalg.norm(e))
            res = recovery.bpdn_synthesis(a, b, eps=noise)
            err = np.linalg.norm(res.solution - u0) / np.linalg.norm(u0)
            successes += int(err <= 1e-3)
        rates.append(successes / config["trials"])
    return rates


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("noise,m_values", [(0.0, "5, 14"),
                                            (1e-3, "8, 14, 20")])
def test_recover_sweep_matches_per_trial_solves(tmp_path, monkeypatch, noise,
                                                m_values, cpus):
    import multiprocessing

    from bilinlab import recovery
    # stacks of 3 trials at m = 14, so 7 trials cross two stack boundaries;
    # the largest m recovers every trial, and at noise 1e-3 the smaller
    # ones recover only some, which depends on the noise drawn.  One usable
    # CPU solves the stacks in this process, two in a pool of workers.
    monkeypatch.setattr(recovery, "STACK_ENTRIES", 3 * 14 * 24)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    cfg = _write_config(tmp_path, "command = recover-sweep\nn = 24\n"
                        f"sparsity = 2\nm_values = {m_values}\n"
                        f"trials = 7\nnoise = {noise}\nseed = 3\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "recover-sweep.json").read_text())
    rates = [row["success_rate"] for row in payload["sweep"]]
    assert multiprocessing.active_children() == []
    assert rates == _per_trial_sweep(payload["config"])
    assert rates[-1] == 1.0


@pytest.mark.parametrize("cpus", [1, 2])
def test_recover_sweep_out_of_memory_exit_code(tmp_path, monkeypatch, capsys,
                                               cpus):
    import multiprocessing

    def exhausted(*args):
        raise MemoryError("Unable to allocate 14.9 GiB")

    monkeypatch.setattr(cli, "_recovered", exhausted)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    cfg = _write_config(tmp_path, "command = recover-sweep\nn = 10\n"
                        "sparsity = 2\nm_values = 4, 6\ntrials = 2\n")
    assert cli.main(["--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 2
    assert multiprocessing.active_children() == []
    err = capsys.readouterr().err
    assert err == "config error: Unable to allocate 14.9 GiB\n"


def test_recover_sweep_worker_error_kills_busy_worker(monkeypatch):
    import multiprocessing
    import time

    # One worker raises at once while the other sleeps in its task; the
    # map kills the sleeper instead of waiting for it.
    def recovered(delay):
        time.sleep(delay)
        raise MemoryError("Unable to allocate 14.9 GiB")

    monkeypatch.setattr(cli, "_recovered", recovered)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    start = time.perf_counter()
    with pytest.raises(MemoryError, match="14.9 GiB"):
        cli._map_recovered([(30.0,), (0.0,)])
    assert time.perf_counter() - start < 10
    assert multiprocessing.active_children() == []


def test_recover_sweep_dead_worker_exit_code(tmp_path, monkeypatch, capfd):
    import multiprocessing
    import os

    # A worker that ends without a result is an I/O error, reported on one
    # line; stderr is captured at the descriptor, which children share.
    monkeypatch.setattr(cli, "_recovered", lambda *args: os._exit(7))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    cfg = _write_config(tmp_path, "command = recover-sweep\nn = 10\n"
                        "sparsity = 2\nm_values = 4, 6\ntrials = 2\n")
    assert cli.main(["--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 3
    assert multiprocessing.active_children() == []
    err = capfd.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert "exited with code 7" in err


def test_recover_sweep_workers_pull_tasks(tmp_path, monkeypatch):
    import multiprocessing
    import os
    import time

    # Task 0 holds one worker; a static split would give it tasks 2 and 4
    # as well, while workers that pull run tasks 1-5 in the other one.
    log = tmp_path / "runs"

    def echo(index):
        with open(log, "a") as runs:
            runs.write(f"{index}\n")
        if index == 0:
            time.sleep(0.5)
        return index, os.getpid()

    monkeypatch.setattr(cli, "_recovered", echo)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    results = cli._map_recovered([(index,) for index in range(6)])
    assert multiprocessing.active_children() == []
    assert [index for index, _ in results] == list(range(6))
    assert sorted(int(line) for line in log.read_text().split()) == list(
        range(6))
    pids = [pid for _, pid in results]
    assert os.getpid() not in pids
    assert pids[0] not in pids[1:] and len(set(pids[1:])) == 1


def test_recover_sweep_workers_share_the_counter(tmp_path, monkeypatch):
    import multiprocessing
    import os

    # Four workers pulling many tiny tasks: a lost update of the shared
    # counter runs some task twice, which the log shows.
    log = tmp_path / "runs"

    def echo(index):
        with open(log, "a") as runs:
            runs.write(f"{index}\n")
        return index

    monkeypatch.setattr(cli, "_recovered", echo)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    tasks = [(index,) for index in range(300)]
    assert cli._map_recovered(tasks) == list(range(300))
    assert multiprocessing.active_children() == []
    assert sorted(int(line) for line in log.read_text().split()) == list(
        range(300))


@pytest.mark.parametrize("job", ["recover-exact", "recover-exact-s5",
                                 "recover-noisy", "recover-noisy-s5"])
@pytest.mark.parametrize("seed", [0, 1, 1000])
def test_benchmark_exact_sweeps_solve_no_trial(tmp_path, monkeypatch, job,
                                              seed):
    # The minimax dual certificate decides every trial of the benchmark
    # sweeps, exact and noisy, so the solver is never called.
    from bilinlab import recovery
    certify = recovery.dual_certificate
    certified, solves = [], []

    def counted(a, u0, eps):
        certified.append(len(a))
        return certify(a, u0, eps)

    monkeypatch.setattr(recovery, "dual_certificate", counted)
    monkeypatch.setattr(recovery, "bpdn_synthesis_stack",
                        lambda *args: solves.append(args))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    body, _ = BENCHMARK_REPORT_SHA256[job]
    cfg = _write_config(tmp_path, body + f"seed = {seed}\n")
    config = cli.parse_config(cfg)
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert sum(certified) == len(config["m_values"]) * config["trials"]
    assert solves == []


def test_recover_sweep_workers_use_one_blas_thread(monkeypatch):
    import ctypes
    import glob
    import os

    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    paths = glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))
    lib = ctypes.CDLL(paths[0]) if paths else None
    get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get_threads is None or set_threads is None:
        pytest.skip("numpy bundles no OpenBLAS with a thread count call")
    # The map starts in a process with two BLAS threads; each task, in
    # this process or in a fork worker, reads one, and the caller's count
    # is restored afterwards.
    monkeypatch.setattr(cli, "_recovered", lambda *args: get_threads())
    before = get_threads()
    set_threads(2)
    try:
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            assert get_threads() == 2
            assert cli._map_recovered([()] * 4) == [1] * 4
            assert get_threads() == 2
    finally:
        set_threads(before)


def test_phase_stability_command(tmp_path):
    cfg = _write_config(tmp_path,
                        "command = phase-stability\nn = 2\ntrials = 60\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "phase-stability.json").read_text())
    assert payload["positive"]
    assert payload["c_hat"] > 0
    assert payload["c_hat_is_upper_estimate"] is True
    assert len(payload["worst_pair"]["x1_re"]) == 2


def test_seed_override(tmp_path):
    cfg = _write_config(tmp_path, "command = freiman-search\nset = 0,1,4\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out),
                     "--seed", "99"]) == 0
    payload = json.loads((out / "freiman-search.json").read_text())
    assert payload["config"]["seed"] == 99


@pytest.mark.parametrize("body,flags", [
    ("command = freiman-search\nset = 0,1,4\nseed = -1\n", []),
    ("command = freiman-search\nset = 0,1,4\n", ["--seed", "-1"]),
    ("command = demod-selftest\nn = 8\nseed = 3\n", ["--seed", "-5"]),
])
def test_negative_seed_rejected(tmp_path, capsys, body, flags):
    # Checked once after the --seed override, for every command.
    cfg = _write_config(tmp_path, body)
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err == \
        "config error: seed must be nonnegative\n"
    assert not out.exists()


def test_reports_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, """
    command = embed-verify
    ensemble = gaussian
    m = 10
    n = 12
    trials = 25
    """)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "embed-verify.json").read_bytes() == \
        (out2 / "embed-verify.json").read_bytes()

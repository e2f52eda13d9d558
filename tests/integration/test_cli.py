"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import main

KERNELS = Path(__file__).resolve().parents[2] / "examples" / "kernels"
GESUMMV = str(KERNELS / "gesummv.cl")
SPMV = str(KERNELS / "spmv.cl")


def run_cli(capsys, *argv) -> str:
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


class TestAnalyze:
    def test_features_printed(self, capsys):
        out = run_cli(capsys, "analyze", GESUMMV)
        assert "mem_continuous" in out
        assert "gesummv" in out

    def test_profile_with_launch_info(self, capsys):
        out = run_cli(
            capsys, "analyze", GESUMMV, "--arg", "n=1024",
            "--global-size", "1024", "--local-size", "64",
        )
        assert "bytes/work-item" in out
        assert "arithmetic intensity" in out

    def test_irregular_kernel_flagged(self, capsys):
        out = run_cli(
            capsys, "analyze", SPMV, "--arg", "n=1024",
            "--global-size", "1024", "--local-size", "64", "--hint", "32",
        )
        assert "irregular            True" in out

    def test_missing_file_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "/nonexistent/kernel.cl"])

    def test_bad_arg_syntax_errors(self):
        with pytest.raises(SystemExit):
            main(["analyze", GESUMMV, "--arg", "n:1024", "--global-size", "64"])


class TestTransform:
    def test_malleable_source_printed(self, capsys):
        out = run_cli(capsys, "transform", GESUMMV)
        assert "dop_gpu_mod" in out
        assert "local_worklist" in out

    def test_cpu_variant_printed(self, capsys):
        out = run_cli(capsys, "transform", GESUMMV, "--cpu")
        assert "gesummv_cpu" in out
        assert "dopia_wg_worklist" in out

    def test_2d_transform(self, capsys):
        out = run_cli(capsys, "transform", GESUMMV, "--work-dim", "2")
        assert "get_local_size(1)" in out


class TestTrainPredictSweep:
    def test_train_and_save_and_predict(self, capsys, tmp_path):
        model_file = tmp_path / "model.pkl"
        out = run_cli(
            capsys, "train", "--platform", "kaveri", "--model", "dt",
            "--output", str(model_file),
        )
        assert "trained dt" in out
        assert model_file.exists()

        out = run_cli(
            capsys, "predict", GESUMMV, "--platform", "kaveri",
            "--model-file", str(model_file), "--verbose",
        )
        assert "selected :" in out
        assert "<-- selected" in out

    def test_model_platform_mismatch_rejected(self, capsys, tmp_path):
        model_file = tmp_path / "model.pkl"
        run_cli(capsys, "train", "--platform", "kaveri", "--output", str(model_file))
        with pytest.raises(SystemExit):
            main([
                "predict", GESUMMV, "--platform", "skylake",
                "--model-file", str(model_file),
            ])

    def test_emit_c(self, capsys, tmp_path):
        c_file = tmp_path / "tree.c"
        run_cli(capsys, "train", "--model", "dt", "--emit-c", str(c_file))
        text = c_file.read_text()
        assert "double dopia_predict(const double *features)" in text
        assert "/* features[0] = mem_constant */" in text

    def test_emit_c_requires_dt(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", "--model", "lin", "--emit-c", str(tmp_path / "x.c")])

    def test_train_accepts_jobs_flag(self, capsys):
        out = run_cli(capsys, "train", "--platform", "kaveri", "--jobs", "1")
        assert "trained dt" in out

    def test_sweep_prints_ranking(self, capsys):
        out = run_cli(
            capsys, "sweep", GESUMMV, "--arg", "n=16384",
            "--global-size", "16384", "--local-size", "256", "--top", "5",
        )
        assert "fastest first" in out
        assert "best:" in out
        assert out.count("ms") >= 5


class TestTraceStats:
    def test_trace_writes_valid_pair_and_stats_reads_it(self, capsys, tmp_path):
        import json

        from repro.obs import JSONL_KEYS

        out = run_cli(
            capsys, "trace", "GESUMMV", "--out", str(tmp_path), "--jobs", "1",
        )
        jsonl = tmp_path / "GESUMMV.trace.jsonl"
        chrome = tmp_path / "GESUMMV.chrome.json"
        assert str(jsonl) in out and str(chrome) in out
        assert "counters:" in out

        # every JSONL line carries the stable eight-key schema
        lines = jsonl.read_text().splitlines()
        assert lines
        events = [json.loads(line) for line in lines]
        for record in events:
            assert tuple(record) == JSONL_KEYS

        # the advertised content: predictor (44 configs), scheduler,
        # backend selection
        names = {e["name"] for e in events}
        assert "predictor.select" in names
        assert "backend.choice" in names
        assert names & {"schedule.cpu_pull", "schedule.gpu_chunk"}
        select = next(e for e in events if e["name"] == "predictor.select")
        assert len(select["args"]["configs"]) == 44

        # the Chrome pair loads as plain JSON with a traceEvents array
        data = json.loads(chrome.read_text())
        assert len(data["traceEvents"]) == len(events)
        assert {e["ph"] for e in data["traceEvents"]} <= {"X", "i", "C"}

        out = run_cli(capsys, "stats", str(jsonl))
        assert f"events    : {len(events)}" in out
        assert "dopia.launch" in out

    def test_trace_unknown_workload_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "NOPE", "--out", str(tmp_path)])

    def test_stats_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["stats", str(tmp_path / "missing.jsonl")])

    def test_stats_rejects_non_trace_file(self, tmp_path):
        bad = tmp_path / "not-a-trace.jsonl"
        bad.write_text("this is not json\n")
        with pytest.raises(SystemExit):
            main(["stats", str(bad)])


class TestCacheCommand:
    def test_cache_info_reports_empty_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DOPIA_CACHE_DIR", str(tmp_path))
        out = run_cli(capsys, "cache", "info")
        assert str(tmp_path) in out
        assert "shards    : 0" in out

    def test_cache_key_prints_fingerprint(self, capsys):
        out = run_cli(capsys, "cache", "key", "--platform", "kaveri")
        token = out.strip()
        assert token.startswith("kaveri-")
        assert len(token.split("-", 1)[1]) == 24  # blake2b-12 hex digest
        # stable across invocations (this is the CI cache key)
        assert run_cli(capsys, "cache", "key", "--platform", "kaveri").strip() == token

    def test_cache_key_differs_for_real_workloads(self, capsys):
        synth = run_cli(capsys, "cache", "key", "--platform", "skylake").strip()
        real = run_cli(capsys, "cache", "key", "--platform", "skylake", "--real").strip()
        assert synth != real

    def test_cache_clear_removes_shards(self, capsys, tmp_path, monkeypatch):
        from repro.core import collect_dataset
        from repro.sim import KAVERI
        from repro.workloads import make_gesummv

        monkeypatch.setenv("DOPIA_CACHE_DIR", str(tmp_path))
        collect_dataset([make_gesummv(n=512, wg=64)], KAVERI, cache=True,
                        cache_dir=tmp_path)
        out = run_cli(capsys, "cache", "info")
        assert "shards    : 1" in out
        out = run_cli(capsys, "cache", "clear")
        assert "removed 2 cache file(s)" in out
        out = run_cli(capsys, "cache", "info")
        assert "shards    : 0" in out


class TestLintStats:
    """``dopia lint --stats``: verdict counts plus the unknown ratchet."""

    def test_stats_printed_for_clean_workload(self, capsys):
        code = main(["lint", "GESUMMV/24/wg8", "--stats"])
        err = capsys.readouterr().err
        assert code == 0
        assert "lint: stats: races: clean=1" in err
        assert "lint: stats: no unknown verdicts" in err

    def test_unlisted_unknown_fails_the_ratchet(self, capsys):
        # SpMV's indirect column addressing is outside the OOB envelope
        code = main(["lint", "SpMV/32/wg8", "--stats"])
        err = capsys.readouterr().err
        assert code == 1
        assert "UNKNOWN verdict outside allowlist: SpMV/32/wg8#oob" in err

    def test_allowlist_excuses_known_unknowns(self, capsys, tmp_path):
        allowlist = tmp_path / "allow.json"
        allowlist.write_text('["SpMV/32/wg8#oob"]')
        code = main(["lint", "SpMV/32/wg8", "--stats",
                     "--allow-unknown", str(allowlist)])
        err = capsys.readouterr().err
        assert code == 0
        assert "1 unknown verdict(s), all allowlisted" in err

    def test_stale_allowlist_entry_is_flagged(self, capsys, tmp_path):
        allowlist = tmp_path / "allow.json"
        allowlist.write_text('["GESUMMV/24/wg8#oob"]')
        code = main(["lint", "GESUMMV/24/wg8", "--stats",
                     "--allow-unknown", str(allowlist)])
        err = capsys.readouterr().err
        assert code == 0
        assert ("allowlist entry no longer unknown (ratchet it): "
                "GESUMMV/24/wg8#oob") in err

    def test_committed_allowlist_covers_the_registry(self, capsys):
        """The CI invocation in miniature: the committed allowlist must
        excuse exactly the registry's remaining unknowns."""
        code = main(["lint", "SpMV/32/wg8", "PageRank/32/wg8", "--stats",
                     "--allow-unknown", "LINT_ALLOWLIST.json"])
        err = capsys.readouterr().err
        assert code == 0
        assert "all allowlisted" in err

    def test_baseline_regeneration_hint_on_improvement(self, capsys,
                                                       tmp_path):
        import json

        baseline = tmp_path / "baseline.json"
        code = main(["lint", "GESUMMV/24/wg8", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        # age the baseline: pretend races used to be unknown
        document["reports"][0]["verdicts"]["races"] = "unknown"
        baseline.write_text(json.dumps(document))
        code = main(["lint", "GESUMMV/24/wg8", "--check", str(baseline)])
        err = capsys.readouterr().err
        assert code == 0  # improvements warn, never fail
        assert "IMPROVED verdict: GESUMMV/24/wg8: races: unknown -> clean" \
            in err
        assert "baseline is stale; regenerate it with:" in err
        assert f"--json > {baseline}" in err

    def test_verdict_regression_fails_the_check(self, capsys, tmp_path):
        import json

        baseline = tmp_path / "baseline.json"
        code = main(["lint", "GESUMMV/24/wg8", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        # pretend the baseline proved a pass this run cannot
        document["reports"][0]["verdicts"]["oob"] = "clean"
        current = json.dumps(document)
        document["reports"][0]["verdicts"]["oob"] = "unknown"
        # the *baseline* is the stronger document; regenerating from the
        # current run would silently lose the proof
        baseline.write_text(current)

        from repro.analysis.lint import diff_baseline

        diff = diff_baseline(json.dumps(document), current)
        assert diff.regressed == ["GESUMMV/24/wg8: oob: clean -> unknown"]
        assert not diff.clean


class TestBackendSelection:
    @pytest.mark.parametrize("value", ["vector", "bogus"])
    def test_unknown_env_backend_exits_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("DOPIA_BACKEND", value)
        assert main(["trace", "GESUMMV"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert f"DOPIA_BACKEND='{value}'" in err[0]
        assert "auto, jit, scalar" in err[0]

    def test_vector_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--backend", "vector", "trace", "GESUMMV"])
        assert exc.value.code == 2

    def test_backends_compares_jit_with_scalar(self, capsys):
        out = run_cli(capsys, "backends", SPMV, "--global-size", "32",
                      "--local-size", "8", "--arg", "n=32",
                      "--buffer", "rowptr=33")
        assert "jit       :" in out and "masked" in out
        assert "identical : True" in out
        assert "vector" not in out

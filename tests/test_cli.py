"""CLI tests."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out
        assert "table4" in out


class TestRun:
    def test_run_table4(self, capsys):
        assert main(["run", "table4"]) == 0
        assert "GreenSKU-Full" in capsys.readouterr().out

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "Bergamo" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])


class TestPrice:
    def test_price_greensku(self, capsys):
        assert main(["price", "GreenSKU-Full"]) == 0
        out = capsys.readouterr().out
        assert "total/core" in out
        assert "128 cores" in out

    def test_price_with_intensity(self, capsys):
        assert main(["price", "Baseline", "--ci", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "operational/core:         0.0" in out

    def test_unknown_sku_error(self, capsys):
        assert main(["price", "MegaSKU"]) == 2
        assert "unknown SKU" in capsys.readouterr().err

    def test_nan_intensity_error(self, capsys):
        assert main(["price", "GreenSKU-Full", "--ci", "nan"]) == 2
        captured = capsys.readouterr()
        assert "carbon intensity must be finite" in captured.err
        assert "nan kg" not in captured.out

    def test_zero_lifetime_error(self, capsys):
        # A zero lifetime is rejected like -1, not read as "not given".
        assert main(["price", "GreenSKU-Full", "--lifetime", "0"]) == 2
        assert "lifetime (years) must be finite and > 0" in (
            capsys.readouterr().err
        )


class TestSavings:
    def test_savings_table(self, capsys):
        assert main(["savings"]) == 0
        out = capsys.readouterr().out
        assert "GreenSKU-CXL" in out
        assert "Total Savings" in out


class TestEvaluate:
    def test_evaluate_small(self, capsys):
        code = main(
            ["evaluate", "--vms", "60", "--days", "4", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster savings" in out


class TestTrace:
    def test_trace_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "t.csv"
        code = main(
            ["trace", "--vms", "40", "--days", "2", "--out", str(out_file)]
        )
        assert code == 0
        assert out_file.exists()
        from repro.allocation.io import load_trace

        loaded = load_trace(out_file)
        assert len(loaded.vms) > 0


class TestTelemetryFlag:
    def test_writes_valid_manifest(self, capsys, tmp_path):
        from repro.core.telemetry import load_manifest, validate_manifest

        path = tmp_path / "tel.json"
        argv = [
            "--telemetry", str(path),
            "evaluate", "--vms", "60", "--days", "4", "--seed", "3",
        ]
        assert main(argv) == 0
        manifest = load_manifest(path)
        assert validate_manifest(manifest) == []
        assert manifest["command"] == "evaluate"
        assert manifest["argv"] == argv
        assert manifest["counters"]["alloc.replays"] >= 1
        assert manifest["counters"]["sizing.searches"] >= 1
        assert "alloc.replay" in manifest["timers"]

    def test_output_identical_with_and_without(self, capsys, tmp_path):
        argv = ["evaluate", "--vms", "60", "--days", "4", "--seed", "3"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        path = tmp_path / "tel.json"
        assert main(["--telemetry", str(path)] + argv) == 0
        instrumented = capsys.readouterr().out
        assert instrumented == plain

    def test_run_experiment_has_span(self, capsys, tmp_path):
        from repro.core.telemetry import load_manifest

        path = tmp_path / "tel.json"
        assert main(["--telemetry", str(path), "run", "table4"]) == 0
        manifest = load_manifest(path)
        assert [s["name"] for s in manifest["spans"]] == [
            "experiment.table4"
        ]

    def test_telemetry_off_leaves_no_sink(self):
        from repro.core import telemetry

        assert main(["run", "table4"]) == 0
        assert telemetry.active() is None


class TestResilienceFlags:
    def test_faulty_run_then_resume_is_bit_identical(self, capsys, tmp_path):
        from repro.core.telemetry import load_manifest

        journal = tmp_path / "journal"

        assert main(["run", "fig9"]) == 0
        clean_out = capsys.readouterr().out

        # Kill the worker for two tasks on their first attempt; retries
        # recover them and every task checkpoints to the journal.
        faulty_tel = tmp_path / "faulty.json"
        code = main([
            "--journal", str(journal),
            "--retries", "2",
            "--faults", "kill=1;4 attempts=1",
            "--telemetry", str(faulty_tel),
            "run", "fig9",
        ])
        assert code == 0
        assert capsys.readouterr().out == clean_out
        counters = load_manifest(faulty_tel)["counters"]
        assert counters["resilience.retries"] == 2
        assert counters["resilience.checkpointed"] == 12

        # --resume alone: every task is a journal hit, output identical.
        resume_tel = tmp_path / "resume.json"
        code = main([
            "--journal", str(journal),
            "--telemetry", str(resume_tel),
            "run", "fig9",
        ])
        assert code == 0
        assert capsys.readouterr().out == clean_out
        counters = load_manifest(resume_tel)["counters"]
        assert counters["resilience.resumed"] == 12
        assert "resilience.checkpointed" not in counters

    def test_keep_going_alone_degrades(self):
        from repro.cli import _build_policy, build_parser

        policy = _build_policy(
            build_parser().parse_args(["--keep-going", "run", "fig9"])
        )
        assert policy is not None
        assert policy.on_failure == "record"
        assert policy.retry.max_retries == 2
        assert policy.journal is None
        assert policy.faults is None

    def test_no_resilience_flag_installs_no_policy(self):
        from repro.cli import _build_policy, build_parser

        args = build_parser().parse_args(["run", "fig9"])
        assert _build_policy(args) is None

    def test_policy_cleared_after_main(self):
        from repro.core import settings

        assert main(["--retries", "1", "run", "table4"]) == 0
        assert settings.current().policy is None

    def test_bad_fault_spec_rejected(self, capsys):
        assert main(["--faults", "banana=1", "run", "table4"]) == 2
        assert "fault spec" in capsys.readouterr().err

    def test_nan_task_timeout_rejected(self, capsys):
        assert main(["--task-timeout", "nan", "run", "table3"]) == 2
        assert "timeout_s must be finite" in capsys.readouterr().err


class TestStats:
    def _manifest(self, tmp_path):
        path = tmp_path / "tel.json"
        main(
            ["--telemetry", str(path), "evaluate",
             "--vms", "60", "--days", "4", "--seed", "3"]
        )
        return path

    def test_pretty_prints_manifest(self, capsys, tmp_path):
        path = self._manifest(tmp_path)
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry manifest: evaluate" in out
        assert "alloc.replays" in out
        assert "timers:" in out

    def test_rejects_invalid_manifest(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "bogus/1"}\n')
        assert main(["stats", str(path)]) == 2
        assert "invalid manifest" in capsys.readouterr().err

    def test_rejects_missing_file(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestRunSettings:
    """The root flags and ``REPRO_*`` variables resolve by one rule."""

    def test_jobs_flag_beats_env_on_run(self, tmp_path, monkeypatch):
        # `run fig11` once let REPRO_JOBS beat --jobs (5 parallel tasks).
        from repro.core.telemetry import load_manifest

        monkeypatch.setenv("REPRO_JOBS", "2")
        path = tmp_path / "tel.json"
        argv = ["--jobs", "1", "--telemetry", str(path), "run", "fig11"]
        assert main(argv) == 0
        manifest = load_manifest(path)
        assert "runner.parallel_tasks" not in manifest["counters"]
        assert manifest["settings"]["jobs"] == 1

    @pytest.mark.parametrize("off", ["off", "False", "FALSE", ""])
    def test_cache_off_value_turns_the_cache_off(
        self, capsys, tmp_path, monkeypatch, off
    ):
        # "off" once turned the disk cache and the trace store on.
        from repro.core.resilience import resilient_map

        monkeypatch.setenv("REPRO_CACHE", off)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        assert resilient_map(str.upper, ["a", "b"], key_fn=str, jobs=1) == [
            "A", "B"
        ]
        argv = ["trace", "--suite", "2", "--vms", "40", "--days", "1"]
        assert main(argv) == 0
        assert not list(tmp_path.iterdir())

    def test_unknown_cache_value_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "maybe")
        assert main(["run", "table3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: REPRO_CACHE must be one of")
        assert len(err.strip().splitlines()) == 1

    def test_missing_azure_dir_sweep_exits_2(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_AZURE_TRACE_DIR", str(tmp_path / "gone"))
        code = main(
            ["sweep", "--backends", "azure",
             "--catalog-dir", str(tmp_path / "catalog")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: azure trace directory not found: {tmp_path / 'gone'}\n"
        )

    def test_main_leaves_env_and_settings_untouched(self, monkeypatch):
        import os

        from repro.core import settings

        monkeypatch.setenv("REPRO_CODE_SALT", "outer")
        before = dict(os.environ)
        argv = ["--jobs", "1", "--no-cache", "--trace-backend", "azure",
                "--retries", "1", "--provenance", "auto", "list"]
        assert main(argv) == 0
        assert dict(os.environ) == before
        assert settings._INSTALLED is None
        assert settings.current() == settings.Settings.from_env()

    def test_manifest_records_resolved_settings(self, capsys, tmp_path):
        import platform

        import numpy

        from repro.core.telemetry import load_manifest

        path = tmp_path / "tel.json"
        assert main(["--jobs", "1", "--telemetry", str(path), "savings"]) == 0
        manifest = load_manifest(path)
        block = manifest["settings"]
        assert set(block) == {
            "jobs", "cache", "cache_dir", "trace_store", "trace_store_dir",
            "trace_backend", "azure_trace_dir", "catalog_dir", "code_salt",
            "policy", "provenance",
        }
        assert block["jobs"] == 1
        assert block["trace_backend"] == "synthetic"
        assert isinstance(block["cache_dir"], str)
        assert set(block["policy"]) == {
            "retries", "timeout_s", "journal", "on_failure", "faults",
        }
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == numpy.__version__

    def test_manifest_records_the_policy_flags(self, tmp_path):
        from repro.core.telemetry import load_manifest

        path = tmp_path / "tel.json"
        journal = tmp_path / "journal"
        argv = ["--journal", str(journal), "--retries", "3", "--keep-going",
                "--faults", "kill=1 seed=4", "--provenance",
                str(tmp_path / "p.jsonl"), "--telemetry", str(path), "savings"]
        assert main(argv) == 0
        block = load_manifest(path)["settings"]
        assert block["policy"] == {
            "retries": 3,
            "timeout_s": None,
            "journal": str(journal),
            "on_failure": "record",
            "faults": {
                "kill_indices": [1], "kill_probability": 0.0,
                "kill_attempts": 1, "kill_mode": "exception",
                "latency_s": 0.0, "latency_indices": None, "seed": 4,
            },
        }
        assert block["provenance"] == str(tmp_path / "p.jsonl")

    def test_stats_prints_the_settings_block(self, capsys, tmp_path):
        path = tmp_path / "tel.json"
        assert main(["--jobs", "1", "--telemetry", str(path), "savings"]) == 0
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "settings:" in out
        assert "  jobs: 1" in out
        assert '  trace_backend: "synthetic"' in out
        assert "python " in out and "numpy " in out

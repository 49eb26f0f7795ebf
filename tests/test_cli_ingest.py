"""CLI tests for ``repro trace ingest`` and ``--trace-backend``."""

import gzip
import json
import os

import pytest

from repro.allocation.ingest import bundled_sample_path
from repro.cli import main

ROW = (
    "vm-{i},sub,dep,{created},{deleted},55.0,12.0,40.0,"
    "Interactive,2,4"
)


def _table(tmp_path, n=8, name="table.csv"):
    lines = [
        ROW.format(i=i, created=3600 + 60 * i, deleted=9000 + 60 * i)
        for i in range(n)
    ]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestTraceIngest:
    def test_ingest_happy_path(self, tmp_path, capsys):
        path = _table(tmp_path)
        assert main(["trace", "ingest", str(path), "--digest"]) == 0
        out = capsys.readouterr().out
        assert "ingested 1/1 files" in out
        assert "table" in out

    def test_ingest_bundled_sample(self, capsys):
        code = main(
            ["trace", "ingest", str(bundled_sample_path()), "--digest"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "420" in out

    def test_report_files_written(self, tmp_path, capsys):
        path = _table(tmp_path)
        report_dir = tmp_path / "reports"
        code = main(
            ["trace", "ingest", str(path), "--report", str(report_dir)]
        )
        assert code == 0
        reports = list(report_dir.glob("*.ingest.json"))
        assert len(reports) == 1
        payload = json.loads(reports[0].read_text())
        assert payload["rows_kept"] == 8
        assert payload["schema"] == "azure-vmtable/1"

    def test_corrupt_file_quarantined(self, tmp_path, capsys):
        good = _table(tmp_path, name="good.csv")
        bad = tmp_path / "bad.csv.gz"
        bad.write_bytes(b"\x1f\x8b" + b"\x00" * 16)
        code = main(["trace", "ingest", str(bad), str(good)])
        assert code == 0  # one file survived
        captured = capsys.readouterr()
        assert "quarantined" in captured.err
        assert not bad.exists()
        assert (tmp_path / "quarantine" / "bad.csv.gz").exists()
        assert "ingested 1/2 files" in captured.out

    def test_all_corrupt_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv.gz"
        bad.write_bytes(b"\x1f\x8b" + b"\x00" * 16)
        assert main(["trace", "ingest", str(bad)]) == 2
        assert (tmp_path / "quarantine" / "bad.csv.gz").exists()

    def test_warm_registers_in_store(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(
            "REPRO_TRACE_STORE_DIR", str(tmp_path / "store")
        )
        path = _table(tmp_path)
        assert main(["trace", "ingest", str(path), "--warm"]) == 0
        assert "miss" in capsys.readouterr().out
        assert main(["trace", "ingest", str(path), "--warm"]) == 0
        assert "hit" in capsys.readouterr().out

    def test_rebase_shifts_window(self, tmp_path, capsys):
        path = _table(tmp_path)
        assert main(["trace", "ingest", str(path), "--rebase"]) == 0
        out = capsys.readouterr().out
        assert "| 0.0" in out  # start h column rebased to zero

    def test_plain_trace_command_still_works(self, capsys):
        code = main(
            ["trace", "--seed", "3", "--vms", "40", "--days", "1"]
        )
        assert code == 0
        assert "full-node share" in capsys.readouterr().out


class TestTraceBackendFlag:
    def test_evaluate_with_azure_backend(self, capsys):
        code = main(
            ["--trace-backend", "azure", "evaluate", "--sku",
             "GreenSKU-Full"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "azure backend" in out
        assert "420 VMs" in out

    def test_evaluate_synthetic_unchanged(self, capsys):
        code = main(
            ["--trace-backend", "synthetic", "evaluate", "--vms", "60",
             "--days", "4", "--seed", "3"]
        )
        assert code == 0
        assert "seed 3" in capsys.readouterr().out

    def test_env_saved_and_restored(self, capsys):
        assert "REPRO_TRACE_BACKEND" not in os.environ
        main(["--trace-backend", "azure", "trace", "--seed", "1",
              "--vms", "30", "--days", "1"])
        assert "REPRO_TRACE_BACKEND" not in os.environ

    def test_env_value_restored(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_BACKEND", "synthetic")
        main(["--trace-backend", "azure", "trace", "--seed", "1",
              "--vms", "30", "--days", "1"])
        assert os.environ["REPRO_TRACE_BACKEND"] == "synthetic"

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["--trace-backend", "gcp", "list"])

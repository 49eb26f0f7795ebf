"""CLI tests for ``repro sweep`` and ``repro catalog ...``."""

import json

import pytest

from repro.cli import main

AXES = [
    "--rules", "carbon-aware,always",
    "--vms", "30",
    "--days", "0.5",
    "--seed", "3",
]


@pytest.fixture()
def dirs(tmp_path, monkeypatch):
    """Isolated cache/catalog dirs so tests never touch a real cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_CATALOG_DIR", str(tmp_path / "catalog"))
    return tmp_path


class TestSweep:
    def test_cold_then_warm(self, dirs, capsys):
        assert main(["sweep"] + AXES) == 0
        out = capsys.readouterr().out
        assert "scenario sweep (2 points)" in out
        assert "2 recomputed, 0 warm" in out
        assert main(["sweep"] + AXES) == 0
        out = capsys.readouterr().out
        assert "0 recomputed, 2 warm" in out

    def test_mutated_input_reports_cone(self, dirs, capsys):
        assert main(["sweep"] + AXES) == 0
        capsys.readouterr()
        mutated = list(AXES)
        mutated[mutated.index("3")] = "4"  # --seed 3 -> 4
        assert main(["sweep"] + mutated) == 0
        out = capsys.readouterr().out
        assert "changed inputs: trace/synthetic" in out
        assert "invalidated 3 artifacts" in out
        assert "2 recomputed" in out

    def test_gc_flag_drops_stale_entries(self, dirs, capsys):
        assert main(["sweep"] + AXES) == 0
        mutated = list(AXES)
        mutated[mutated.index("3")] = "4"
        assert main(["sweep", "--gc"] + mutated) == 0
        out = capsys.readouterr().out
        assert "gc: removed 3 stale catalog entries" in out

    def test_bad_axis_value_is_config_error(self, dirs, capsys):
        assert main(["sweep", "--cxl", "three"]) == 2
        assert "--cxl" in capsys.readouterr().err

    def test_unknown_sku_is_config_error(self, dirs, capsys):
        assert main(["sweep", "--skus", "MegaSKU"]) == 2
        assert "unknown SKU" in capsys.readouterr().err

    def test_catalog_dir_flag_overrides_env(self, dirs, capsys):
        target = dirs / "elsewhere"
        assert (
            main(["sweep", "--catalog-dir", str(target)] + AXES) == 0
        )
        assert "elsewhere" in capsys.readouterr().out
        assert len(list(target.glob("*.json.gz"))) == 3  # 2 points + summary


class TestCatalogSubcommands:
    def test_build_then_query(self, dirs, capsys):
        assert main(["catalog", "build"] + AXES) == 0
        capsys.readouterr()
        assert main(["catalog", "query"] + AXES) == 0
        out = capsys.readouterr().out
        assert "catalog query: 2/2 warm" in out
        assert "(miss)" not in out

    def test_query_misses_exit_3(self, dirs, capsys):
        assert main(["catalog", "query"] + AXES) == 3
        out = capsys.readouterr().out
        assert "0/2 warm" in out
        assert "(miss)" in out

    def test_gc_keeps_live_closure(self, dirs, capsys):
        assert main(["catalog", "build"] + AXES) == 0
        stale = list(AXES)
        stale[stale.index("3")] = "4"
        assert main(["catalog", "build"] + stale) == 0
        capsys.readouterr()
        assert main(["catalog", "gc"] + stale) == 0
        out = capsys.readouterr().out
        assert "removed 3/6" in out
        # The surviving grid still answers warm.
        assert main(["catalog", "query"] + stale) == 0

    def test_stats_prints_manifest(self, dirs, capsys):
        assert main(["catalog", "build"] + AXES) == 0
        capsys.readouterr()
        assert main(["catalog", "stats"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["schema"] == "repro-catalog/1"
        assert manifest["entries"] == 3

    def test_stats_prints_only_what_the_directory_holds(self, dirs, capsys):
        # The command runs in a fresh process, so per-run counters would
        # always read 0; a run's counts are in its telemetry manifest.
        cold = dirs / "cold.json"
        assert main(["--telemetry", str(cold), "sweep"] + AXES) == 0
        assert main(["sweep"] + AXES) == 0
        capsys.readouterr()
        assert main(["catalog", "stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert list(stats) == ["schema", "directory", "entries", "total_bytes"]
        written = json.loads(cold.read_text())["counters"]["catalog.writes"]
        assert stats["entries"] == written == 3
        assert stats["directory"] == str(dirs / "catalog")
        assert stats["total_bytes"] == sum(
            p.stat().st_size for p in (dirs / "catalog").glob("*.json.gz")
        )


class TestProvenanceFlag:
    def test_sweep_writes_provenance_log(self, dirs, capsys):
        log_path = dirs / "prov.jsonl"
        assert (
            main(["--provenance", str(log_path), "sweep"] + AXES) == 0
        )
        lines = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        ids = {line["artifact_id"] for line in lines}
        assert "sweep/summary" in ids
        assert any(i.startswith("point/") for i in ids)

    def test_run_all_records_experiments(self, dirs, capsys):
        log_path = dirs / "prov.jsonl"
        assert (
            main(["--provenance", str(log_path), "run", "table1"]) == 0
        )
        # `repro run` goes through the single-experiment path; the
        # registry hook covers run-all. Either way the flag must not
        # break the command; record presence is asserted for run-all's
        # hook in tests/core/test_provenance.py.
        assert main(["--provenance", str(log_path), "savings"]) == 0

    def test_auto_path_under_cache_dir(self, dirs, capsys):
        assert main(["--provenance", "auto", "sweep"] + AXES) == 0
        assert (dirs / "cache" / "provenance.jsonl").exists()

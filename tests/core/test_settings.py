"""The run settings: one precedence rule, one parser, one scope."""

import os
from pathlib import Path

import pytest

from repro.core import settings
from repro.core.errors import ConfigError
from repro.core.provenance import ProvenanceLog
from repro.core.resilience import ResiliencePolicy, RetryPolicy, resilient_map
from repro.core.settings import ENV_VARS, Settings

#: Field -> (variable's raw value, the value it parses to, a flag value).
ENV_CASES = {
    "jobs": ("7", 7, 5),
    "cache": ("on", True, False),
    "cache_dir": ("env-cache", Path("env-cache"), Path("flag-cache")),
    "trace_store": ("1", True, False),
    "trace_store_dir": ("env-traces", Path("env-traces"), Path("flag-traces")),
    "trace_backend": ("azure", "azure", "synthetic"),
    "azure_trace_dir": ("env-azure", Path("env-azure"), Path("flag-azure")),
    "catalog_dir": ("env-catalog", Path("env-catalog"), Path("flag-catalog")),
    "code_salt": ("env-salt", "env-salt", "flag-salt"),
}

#: Fields only a flag sets: field -> a flag value.
FLAG_ONLY = {
    "policy": ResiliencePolicy(retry=RetryPolicy(max_retries=1)),
    "provenance": ProvenanceLog(Path("flag.jsonl")),
}

DEFAULTS = {
    "jobs": os.cpu_count() or 1,
    "cache": False,
    "cache_dir": Path(".repro-cache"),
    "trace_store": None,
    "trace_store_dir": None,
    "trace_backend": "synthetic",
    "azure_trace_dir": None,
    "catalog_dir": None,
    "code_salt": "repro-code/1",
    "policy": None,
    "provenance": None,
}


@pytest.fixture
def clean_env(monkeypatch):
    for variable, _parse in ENV_VARS.values():
        monkeypatch.delenv(variable, raising=False)
    return monkeypatch


def _value(field):
    return getattr(settings.current(), field)


def test_every_field_is_covered():
    names = {f for f in Settings.__dataclass_fields__}
    assert names == set(ENV_CASES) | set(FLAG_ONLY) == set(DEFAULTS)
    assert set(ENV_VARS) == set(ENV_CASES)


class TestPrecedence:
    """Default < environment variable < flag (``using``)."""

    @pytest.mark.parametrize("field", sorted(DEFAULTS))
    def test_default(self, clean_env, field):
        assert _value(field) == DEFAULTS[field]

    @pytest.mark.parametrize("field", sorted(ENV_CASES))
    def test_env_only(self, clean_env, field):
        raw, parsed, _flag = ENV_CASES[field]
        clean_env.setenv(ENV_VARS[field][0], raw)
        assert _value(field) == parsed

    @pytest.mark.parametrize("field", sorted(ENV_CASES) + sorted(FLAG_ONLY))
    def test_flag_only(self, clean_env, field):
        flag = ENV_CASES[field][2] if field in ENV_CASES else FLAG_ONLY[field]
        with settings.using(**{field: flag}):
            assert _value(field) == flag
        assert _value(field) == DEFAULTS[field]

    @pytest.mark.parametrize("field", sorted(ENV_CASES))
    def test_flag_beats_env(self, clean_env, field):
        raw, parsed, flag = ENV_CASES[field]
        clean_env.setenv(ENV_VARS[field][0], raw)
        with settings.using(**{field: flag}):
            assert _value(field) == flag
        assert _value(field) == parsed


class TestDerived:
    def test_paths_follow_the_cache_dir(self, clean_env):
        with settings.using(cache_dir="c"):
            run = settings.current()
            assert run.trace_store_path == Path("c/traces")
            assert run.catalog_path == Path("c/catalog")
            assert run.journal_dir == Path("c/journal")
            assert run.provenance_path == Path("c/provenance.jsonl")

    def test_explicit_dirs_win_over_the_cache_dir(self, clean_env):
        clean_env.setenv("REPRO_TRACE_STORE_DIR", "t")
        clean_env.setenv("REPRO_CATALOG_DIR", "k")
        with settings.using(cache_dir="c"):
            assert settings.current().trace_store_path == Path("t")
            assert settings.current().catalog_path == Path("k")

    def test_only_an_unset_trace_store_follows_the_cache(self, clean_env):
        with settings.using(cache=True):
            assert settings.current().use_trace_store
            with settings.using(trace_store=False):
                assert not settings.current().use_trace_store
        clean_env.setenv("REPRO_TRACE_STORE", "1")
        assert settings.current().use_trace_store


class TestParsing:
    @pytest.mark.parametrize(
        "raw", ["1", "true", "yes", "on", "TRUE", "Yes", "On"]
    )
    def test_on_values(self, clean_env, raw):
        clean_env.setenv("REPRO_CACHE", raw)
        assert settings.current().cache

    @pytest.mark.parametrize(
        "raw", ["", "0", "false", "no", "off", "False", "FALSE", "OFF"]
    )
    def test_off_values(self, clean_env, raw):
        clean_env.setenv("REPRO_CACHE", raw)
        clean_env.setenv("REPRO_TRACE_STORE", raw)
        run = settings.current()
        assert not run.cache and not run.use_trace_store

    @pytest.mark.parametrize("raw", ["maybe", "2", "none", "enabled"])
    def test_unknown_boolean_raises(self, clean_env, raw):
        clean_env.setenv("REPRO_TRACE_STORE", raw)
        with pytest.raises(ConfigError, match="REPRO_TRACE_STORE"):
            settings.current()

    @pytest.mark.parametrize("raw", ["0", "-1", "two", "1.5"])
    def test_bad_jobs_raise(self, clean_env, raw):
        clean_env.setenv("REPRO_JOBS", raw)
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            settings.current()

    def test_unknown_backend_raises(self, clean_env):
        clean_env.setenv("REPRO_TRACE_BACKEND", "gcp")
        with pytest.raises(ConfigError, match="unknown trace backend"):
            settings.current()

    @pytest.mark.parametrize(
        "variable", ["REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_CODE_SALT"]
    )
    def test_other_empty_variables_count_as_unset(self, clean_env, variable):
        clean_env.setenv(variable, "")
        assert settings.current() == Settings()

    @pytest.mark.parametrize("jobs", [0, -1, 1.5])
    def test_using_validates(self, clean_env, jobs):
        with pytest.raises(ConfigError, match="jobs"):
            with settings.using(jobs=jobs):
                pass


class TestScope:
    def test_current_reads_the_environment_afresh(self, clean_env):
        assert settings.current().code_salt == "repro-code/1"
        clean_env.setenv("REPRO_CODE_SALT", "later")
        assert settings.current().code_salt == "later"

    def test_using_nests_and_restores(self, clean_env):
        with settings.using(jobs=3) as outer:
            with settings.using(code_salt="inner") as inner:
                assert inner.jobs == 3 and inner.code_salt == "inner"
            assert settings.current() is outer
        assert settings.current() == Settings()

    def test_using_restores_after_an_error(self, clean_env):
        with pytest.raises(RuntimeError):
            with settings.using(jobs=3):
                raise RuntimeError("boom")
        assert settings.current().jobs == DEFAULTS["jobs"]


def _worker_view(_item):
    run = settings.current()
    return run.code_salt, run.use_trace_store, os.getpid()


class TestWorkers:
    def test_forked_worker_sees_the_installed_settings(self, clean_env):
        with settings.using(jobs=2, code_salt="scoped", trace_store=True):
            out = resilient_map(_worker_view, [1, 2, 3, 4])
        assert {(salt, store) for salt, store, _pid in out} == {
            ("scoped", True)
        }
        assert any(pid != os.getpid() for _s, _t, pid in out)


class TestManifestBlock:
    def test_every_field_resolved(self, clean_env):
        block = Settings(jobs=2).to_dict()
        assert set(block) == set(DEFAULTS)
        assert block["jobs"] == 2
        assert block["trace_store"] is False
        assert block["trace_store_dir"] == str(Path(".repro-cache/traces"))
        assert block["catalog_dir"] == str(Path(".repro-cache/catalog"))
        assert block["azure_trace_dir"].endswith(str(Path("data/azure")))
        assert block["policy"] == {
            "retries": 0,
            "timeout_s": None,
            "journal": None,
            "on_failure": "raise",
            "faults": None,
        }
        assert block["provenance"] is None

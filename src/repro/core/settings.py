"""Run settings: every root flag and ``REPRO_*`` variable, resolved once.

One rule: explicit function argument, then CLI flag, then environment
variable, then default.  The CLI runs each command inside one
:func:`using` scope holding its flags (worker processes fork inside it
and inherit it); with nothing installed, :func:`current` reads the
environment afresh.  See "Run settings" in ``docs/reproducing.md``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional

from .checks import check_count
from .errors import ConfigError

if TYPE_CHECKING:
    from .provenance import ProvenanceLog
    from .resilience import ResiliencePolicy

#: Trace-suite backends (``--trace-backend`` / ``REPRO_TRACE_BACKEND``).
TRACE_BACKENDS = ("synthetic", "azure")

#: Bump when a code change alters experiment outputs: every provenance
#: closure includes this salt, so stale catalog entries miss instead of
#: serving results the current code would not produce.
DEFAULT_CODE_SALT = "repro-code/1"

_ON = ("1", "true", "yes", "on")
_OFF = ("", "0", "false", "no", "off")


def _parse_bool(raw: str) -> bool:
    value = raw.lower()
    if value not in _ON + _OFF:
        raise ValueError(f"one of {', '.join(_ON + _OFF[1:])} or empty")
    return value in _ON


def _parse_jobs(raw: str) -> int:
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError("an integer >= 1")
    return jobs


#: Field -> (environment variable, parser).  ``policy`` and
#: ``provenance`` have no variable: only their flags set them.  An empty
#: variable counts as unset, unless it is a boolean (then it is off).
ENV_VARS = {
    "jobs": ("REPRO_JOBS", _parse_jobs),
    "cache": ("REPRO_CACHE", _parse_bool),
    "cache_dir": ("REPRO_CACHE_DIR", Path),
    "trace_store": ("REPRO_TRACE_STORE", _parse_bool),
    "trace_store_dir": ("REPRO_TRACE_STORE_DIR", Path),
    "trace_backend": ("REPRO_TRACE_BACKEND", str),
    "azure_trace_dir": ("REPRO_AZURE_TRACE_DIR", Path),
    "catalog_dir": ("REPRO_CATALOG_DIR", Path),
    "code_salt": ("REPRO_CODE_SALT", str),
}


@dataclass(frozen=True)
class Settings:
    """Every run setting, one field each.

    ``None`` means "derived": ``trace_store`` follows ``cache``, the
    trace-store and catalog directories live under ``cache_dir``,
    ``azure_trace_dir`` is the bundled sample, ``policy`` is one attempt
    with no journal, and no provenance log records.  The properties
    resolve them; derived paths are worked out here and nowhere else.
    """

    jobs: int = field(default_factory=lambda: os.cpu_count() or 1)
    cache: bool = False
    cache_dir: Path = Path(".repro-cache")
    trace_store: Optional[bool] = None
    trace_store_dir: Optional[Path] = None
    trace_backend: str = "synthetic"
    azure_trace_dir: Optional[Path] = None
    catalog_dir: Optional[Path] = None
    code_salt: str = DEFAULT_CODE_SALT
    policy: Optional["ResiliencePolicy"] = None
    provenance: Optional["ProvenanceLog"] = None

    def __post_init__(self) -> None:
        check_count(self.jobs, "jobs")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.trace_backend not in TRACE_BACKENDS:
            raise ConfigError(
                f"unknown trace backend {self.trace_backend!r}; "
                f"choose from {TRACE_BACKENDS}"
            )
        for name, (_variable, parse) in ENV_VARS.items():
            if parse is Path and getattr(self, name) is not None:
                object.__setattr__(self, name, Path(getattr(self, name)))

    @classmethod
    def from_env(cls) -> "Settings":
        """The defaults, overridden by every ``REPRO_*`` variable set."""
        values: Dict[str, Any] = {}
        for name, (variable, parse) in ENV_VARS.items():
            raw = os.environ.get(variable)
            if raw is None or (raw == "" and parse is not _parse_bool):
                continue
            try:
                values[name] = parse(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"{variable} must be {exc}, got {raw!r}"
                ) from None
        return cls(**values)

    @property
    def use_trace_store(self) -> bool:
        """Whether suites read and write the trace store."""
        return self.cache if self.trace_store is None else self.trace_store

    @property
    def trace_store_path(self) -> Path:
        """The trace store's directory."""
        return self.trace_store_dir or self.cache_dir / "traces"

    @property
    def catalog_path(self) -> Path:
        """The results catalog's directory."""
        return self.catalog_dir or self.cache_dir / "catalog"

    @property
    def journal_dir(self) -> Path:
        """The checkpoint journal's default directory (``--resume``)."""
        return self.cache_dir / "journal"

    @property
    def provenance_path(self) -> Path:
        """The provenance log's default path (``--provenance auto``)."""
        return self.cache_dir / "provenance.jsonl"

    def to_dict(self) -> Dict[str, Any]:
        """Every setting resolved, JSON-ready (the run manifest's block)."""
        from ..allocation.ingest import bundled_sample_dir
        from .resilience import PLAIN_POLICY

        azure = self.azure_trace_dir
        if azure is None:
            try:
                azure = bundled_sample_dir()
            except ConfigError:  # an installed package ships no sample
                pass
        policy = self.policy if self.policy is not None else PLAIN_POLICY
        journal, faults = policy.journal, policy.faults
        values = dict(
            vars(self),
            trace_store=self.use_trace_store,
            trace_store_dir=self.trace_store_path,
            azure_trace_dir=azure,
            catalog_dir=self.catalog_path,
            policy={
                "retries": policy.retry.max_retries,
                "timeout_s": policy.retry.timeout_s,
                "journal": None if journal is None else str(journal.directory),
                "on_failure": policy.on_failure,
                "faults": None if faults is None else asdict(faults),
            },
            provenance=self.provenance and self.provenance.path,
        )
        return {
            name: str(value) if isinstance(value, Path) else value
            for name, value in values.items()
        }


_INSTALLED: Optional[Settings] = None


def current() -> Settings:
    """The settings :func:`using` installed, else the environment's."""
    return _INSTALLED if _INSTALLED is not None else Settings.from_env()


@contextmanager
def using(**fields: Any) -> Iterator[Settings]:
    """Install :func:`current` with ``fields`` replaced; scopes nest."""
    global _INSTALLED
    previous = _INSTALLED
    settings = replace(current(), **fields)
    _INSTALLED = settings
    try:
        yield settings
    finally:
        _INSTALLED = previous


__all__ = [
    "DEFAULT_CODE_SALT",
    "ENV_VARS",
    "TRACE_BACKENDS",
    "Settings",
    "current",
    "using",
]

"""Shared benchmark fixtures.

Each benchmark regenerates one paper table/figure at full scale, times it
with pytest-benchmark, and writes the rendered rows/series to
``benchmarks/out/<name>.txt`` (plus ``.csv`` where the experiment exports
series data) so results persist after the run.

Heavy experiments run once per benchmark (``rounds=1``) — the interesting
output is the artifact, not a timing distribution.
"""

from __future__ import annotations

import importlib
import pathlib
import sys

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


def oracle(name: str):
    """Import ``tests.oracles.<name>``, a reference implementation.

    The benches run from ``benchmarks/`` with only ``src`` and this
    directory on the path, so the repository root is added first.
    """
    root = str(pathlib.Path(__file__).resolve().parent.parent)
    if root not in sys.path:
        sys.path.insert(0, root)
    return importlib.import_module(f"tests.oracles.{name}")


@pytest.fixture(scope="session")
def out_dir() -> pathlib.Path:
    """Directory collecting rendered benchmark artifacts."""
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session")
def save(out_dir):
    """Writer: ``save(name, text)`` persists one artifact and echoes it.

    Artifacts are written atomically (temp file + rename) so an aborted
    benchmark run never leaves a truncated file under a final name.
    """
    from repro.core.ioutil import atomic_write_text

    def _save(name: str, text: str) -> None:
        path = out_dir / name
        atomic_write_text(path, text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return _save


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture()
def execution_stats():
    """Instrument the benchmark with telemetry and report its manifest.

    The benchmark body runs inside a :func:`repro.core.telemetry.capture`;
    the yielded callable validates the capture against the manifest
    schema and returns it rendered — counters (tasks, cache hits/misses,
    sizing probes, engine work), timers, and spans — replacing the old
    ad-hoc runner/sizing print lines in the bench log.
    """
    from repro.core import telemetry

    with telemetry.capture() as tel:

        def report() -> str:
            manifest = tel.manifest(command="benchmark")
            problems = telemetry.validate_manifest(manifest)
            assert not problems, problems
            return telemetry.render_manifest(manifest)

        yield report

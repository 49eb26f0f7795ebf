"""Each committed ``benchmarks/out/BENCH_*.json`` passes its validator.

Each ``BENCH_<name>.json`` is written by ``benchmarks/bench_<name>.py``,
which defines ``validate_bench_<name>``.  The CI smoke steps write and
validate their own small-scale records under the git-ignored
``benchmarks/out/smoke/``, so only this test checks the committed ones.
"""

import importlib
import json
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"

RECORDS = sorted((BENCH_DIR / "out").glob("BENCH_*.json"))


def _validator(record: pathlib.Path):
    """``validate_bench_<name>`` from the bench that writes ``record``."""
    name = record.stem[len("BENCH_"):]
    # The benches import their ``conftest`` as a top-level module.
    sys.path.insert(0, str(BENCH_DIR))
    try:
        module = importlib.import_module(f"bench_{name}")
    finally:
        sys.path.remove(str(BENCH_DIR))
    return getattr(module, f"validate_bench_{name}")


def test_records_exist():
    assert RECORDS, f"no BENCH_*.json under {BENCH_DIR / 'out'}"


@pytest.mark.parametrize("record", RECORDS, ids=lambda path: path.name)
def test_committed_record_validates(record):
    manifest = json.loads(record.read_text())
    assert _validator(record)(manifest) == []

"""Self-test of the benchmark at tiny scale.

From the repository root::

    python3 -m pytest perfbench -q

Every metric that ``BENCHMARK.json`` names must be printed with its unit
on every workload, traced and untraced; every traced count must repeat
exactly in a second traced run of the same seed; an output that differs
from its golden must be reported through ``failed`` and ``correct``; and
a ``REPRO_*`` selector in the environment must stop the run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, goldens, trace=0, seed=3, env=None):
    return subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--scale", "tiny",
            "--goldens", str(goldens),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600, env=env,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def goldens(tmp_path_factory):
    path = tmp_path_factory.mktemp("goldens") / "goldens.json"
    subprocess.run(
        [sys.executable, str(HERE / "make_goldens.py"),
         "--scale", "tiny", "--out", str(path)],
        cwd=ROOT, check=True, timeout=600,
    )
    return path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(goldens, workload, trace):
    proc = run_bench(workload, goldens, trace=trace)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in table]
    readable = proc.stdout.splitlines()[:-1]
    for m in table:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
        assert any(
            line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
            for line in readable
        ), f"{m['name']} not printed with its unit"
        if not trace:
            assert metric["value"] > 0
    assert any(line.split()[:1] == ["failure_rate"] for line in readable)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_runs(goldens, workload):
    counts = [
        m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")
    ]
    first, second = (
        result_of(run_bench(workload, goldens, trace=1))["metrics"]
        for _ in range(2)
    )
    assert [first[n] for n in counts] == [second[n] for n in counts]


def _tamper(node):
    """Flip the first hex digit of every digest below ``node``."""
    if isinstance(node, dict):
        return {key: _tamper(value) for key, value in node.items()}
    if isinstance(node, str) and len(node) == 64:
        return ("0" if node[0] != "0" else "1") + node[1:]
    return node


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_golden_counts_as_failure(goldens, tmp_path, workload):
    data = json.loads(goldens.read_text())
    data[workload] = _tamper(data[workload])
    tampered = tmp_path / "goldens.json"
    tampered.write_text(json.dumps(data))
    proc = run_bench(workload, tampered)
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    rate = next(
        line.split() for line in proc.stdout.splitlines()
        if line.split()[:1] == ["failure_rate"]
    )
    assert float(rate[1]) == 1.0


def test_refuses_repro_selectors(goldens):
    env = dict(os.environ, REPRO_ALLOC_ENGINE="reference")
    proc = run_bench("evaluate", goldens, env=env)
    assert proc.returncode != 0
    assert "REPRO_ALLOC_ENGINE" in proc.stderr
    assert not proc.stdout.strip()


def test_any_seed_maps_to_a_golden(goldens):
    assert result_of(run_bench("fleet", goldens, seed=987654321))["correct"]

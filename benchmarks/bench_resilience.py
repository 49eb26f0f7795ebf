"""Benchmark: the resilience layer's checkpoint/resume economics.

Measures a Fig. 9 suite run three ways — clean, fault-injected (worker
kills on a third of the tasks), and resumed from the interrupted run's
journal — and asserts the contract the layer sells: the fault-injected
run retries its way to the same result, and the resumed run is
journal-hits-only (no recomputation) and bit-identical.  The artifact
records the measured cost of each mode next to the retry/resume
counters.

``REPRO_BENCH_TRACES`` scales the suite down for CI smoke runs.
"""

import os
import time

from repro.core import settings, telemetry
from repro.core.faults import FaultPlan
from repro.core.resilience import (
    CheckpointJournal,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.experiments import fig9_packing

from conftest import run_once

TRACE_COUNT = int(os.environ.get("REPRO_BENCH_TRACES", "35"))
VMS = 150


def _timed(fn):
    start = time.perf_counter()
    with telemetry.capture() as tel:
        result = fn()
    return result, time.perf_counter() - start, tel.manifest(command="bench")


def test_resilience_checkpoint_resume(benchmark, save, tmp_path):
    clean, clean_s, _ = _timed(
        lambda: fig9_packing.run(
            trace_count=TRACE_COUNT, mean_concurrent_vms=VMS, jobs=1
        )
    )

    journal = CheckpointJournal(tmp_path / "journal")
    faulty_policy = ResiliencePolicy(
        journal=journal,
        retry=RetryPolicy(max_retries=2, backoff_base_s=0.0),
        faults=FaultPlan(
            kill_indices=tuple(range(0, TRACE_COUNT, 3)), kill_attempts=1
        ),
    )

    def faulty_run():
        with settings.using(policy=faulty_policy):
            return fig9_packing.run(
                trace_count=TRACE_COUNT, mean_concurrent_vms=VMS, jobs=1
            )

    faulty, faulty_s, faulty_manifest = _timed(faulty_run)
    assert faulty == clean, "fault-injected run must match the clean run"

    resume_policy = ResiliencePolicy(journal=journal)

    def resumed_run():
        with settings.using(policy=resume_policy):
            return fig9_packing.run(
                trace_count=TRACE_COUNT, mean_concurrent_vms=VMS, jobs=1
            )

    resumed, resumed_s, resumed_manifest = _timed(
        lambda: run_once(benchmark, resumed_run)
    )
    assert resumed == clean, "resumed run must be bit-identical"
    assert resumed_manifest["counters"]["resilience.resumed"] == TRACE_COUNT

    counters = faulty_manifest["counters"]
    lines = [
        "resilience: Fig 9 suite "
        f"({TRACE_COUNT} traces, {VMS} mean VMs, jobs=1)",
        f"  clean run:          {clean_s:8.2f} s",
        f"  fault-injected run: {faulty_s:8.2f} s "
        f"({counters.get('resilience.retries', 0)} retries, "
        f"{counters.get('resilience.checkpointed', 0)} checkpoints)",
        f"  resumed run:        {resumed_s:8.2f} s "
        f"({resumed_manifest['counters']['resilience.resumed']} journal "
        "hits, 0 recomputed)",
        "  contract: fault-injected == clean, resumed == clean "
        "(asserted bit-identical)",
    ]
    if TRACE_COUNT < 35:
        return  # smoke scale: don't overwrite the full-scale artifact
    save("resilience_checkpoint_resume.txt", "\n".join(lines))

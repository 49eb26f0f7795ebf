"""Fault-injection differential: interrupted + resumed == clean.

The acceptance test for the resilience layer.  A 35-seed Fig. 9/10
suite is run three ways:

1. **clean** — no resilience policy, the PR 1 code path;
2. **interrupted** — under a policy that kills workers on selected task
   indices until their retry budget is exhausted, with the persistent
   trace store corrupted under it mid-flight;
3. **resumed** — same journal, faults cleared, picking up the survivors
   from disk and recomputing only the casualties.

The resumed run must be bit-identical to the clean run — same packing
points, same trace digests (the RNG fingerprint) — and the telemetry
manifest must show the retries, resumes, and quarantines that happened
along the way.
"""

import pytest

from repro.allocation.store import TraceStore
from repro.allocation.traces import (
    TraceParams,
    production_trace_suite,
    suite_specs,
)
from repro.core import settings, telemetry
from repro.core.faults import FaultPlan, corrupt_file
from repro.core.resilience import (
    CheckpointJournal,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.experiments import fig9_packing, fig10_memutil

TRACE_COUNT = 35
VMS = 60  # full seed count, small traces: differential stays fast
PARAMS = TraceParams(mean_concurrent_vms=VMS)

#: Task indices whose worker is killed on *every* attempt during the
#: interrupted run — they exhaust the retry budget and degrade.
DOOMED = (4, 19)
#: Task indices killed on the first attempt only — retries recover them.
FLAKY = tuple(i for i in range(0, TRACE_COUNT, 7) if i not in DOOMED)


def _fast_retry(max_retries=2):
    return RetryPolicy(
        max_retries=max_retries, backoff_base_s=0.0, sleep=lambda _s: None
    )


@pytest.fixture()
def store_env(tmp_path):
    """Route the settings' trace store into this test's sandbox."""
    with settings.using(trace_store=True, trace_store_dir=tmp_path / "traces"):
        yield TraceStore(directory=tmp_path / "traces")


def _run(experiment):
    return experiment.run(
        trace_count=TRACE_COUNT, mean_concurrent_vms=VMS, jobs=1
    )


class TestFig9Differential:
    def test_interrupted_plus_resumed_is_bit_identical(
        self, tmp_path, store_env
    ):
        clean = _run(fig9_packing)
        clean_digests = [
            t.digest()
            for t in production_trace_suite(count=TRACE_COUNT, params=PARAMS)
        ]

        # Sabotage the environment: corrupt two stored traces (one torn,
        # one bit-rotted) and kill workers on a third of the tasks.
        store = store_env
        specs = suite_specs(count=TRACE_COUNT, params=PARAMS)
        for index, mode in ((3, "truncate"), (11, "garble")):
            seed, trace_params, _name = specs[index]
            path = store.path(seed, trace_params)
            assert path.exists(), "clean run should have populated the store"
            corrupt_file(path, mode=mode, seed=5)

        journal = CheckpointJournal(tmp_path / "journal")
        interrupted_policy = ResiliencePolicy(
            journal=journal,
            retry=_fast_retry(max_retries=2),
            faults=FaultPlan(
                kill_indices=DOOMED + FLAKY,
                # DOOMED tasks die on attempts 0..2 (the whole budget);
                # FLAKY tasks die only on attempt 0 and recover.
                kill_attempts=1,
            ),
            on_failure="record",
        )
        doomed_policy = ResiliencePolicy(
            journal=journal,
            retry=_fast_retry(max_retries=2),
            faults=FaultPlan(kill_indices=DOOMED, kill_attempts=3),
            on_failure="record",
        )

        # Pass 1: flaky kills — every task retries its way through.
        with telemetry.capture() as tel:
            with settings.using(policy=interrupted_policy):
                flaky_result = _run(fig9_packing)
        manifest = tel.manifest(command="fig9-interrupted")
        assert telemetry.validate_manifest(manifest) == []
        counters = manifest["counters"]
        assert counters["resilience.retries"] >= len(DOOMED + FLAKY)
        assert counters["trace.store_quarantined"] == 2
        assert flaky_result == clean

        # Pass 2: fresh journal, two tasks doomed past their retry
        # budget — the run degrades instead of dying.
        for entry in journal.directory.glob("*.pkl"):
            entry.unlink()
        journal.meta_path.unlink(missing_ok=True)
        with telemetry.capture() as tel:
            with settings.using(policy=doomed_policy):
                degraded = _run(fig9_packing)
        manifest = tel.manifest(command="fig9-degraded")
        counters = manifest["counters"]
        assert counters["resilience.failures"] == len(DOOMED)
        assert counters["resilience.checkpointed"] == TRACE_COUNT - len(
            DOOMED
        )
        assert len(manifest["failures"]) == len(DOOMED)
        assert all(
            f["error_type"] == "InjectedFault" and f["attempts"] == 3
            for f in manifest["failures"]
        )
        # Graceful degradation: the surviving seeds are the clean run's
        # results with the doomed indices cut out.
        expected_base = [
            p
            for i, p in enumerate(clean.baseline_points)
            if i not in DOOMED
        ]
        assert degraded.baseline_points == expected_base

        # Pass 3: resume with faults cleared.  Only the doomed tasks
        # recompute; everything else journal-hits.
        with telemetry.capture() as tel:
            with settings.using(policy=ResiliencePolicy(journal=journal)):
                resumed = _run(fig9_packing)
        manifest = tel.manifest(command="fig9-resumed")
        counters = manifest["counters"]
        assert counters["resilience.resumed"] == TRACE_COUNT - len(DOOMED)
        assert counters["resilience.checkpointed"] == len(DOOMED)
        assert manifest["failures"] == []

        assert resumed == clean, "resumed run must be bit-identical"
        resumed_digests = [
            t.digest()
            for t in production_trace_suite(count=TRACE_COUNT, params=PARAMS)
        ]
        assert resumed_digests == clean_digests, (
            "trace RNG state must be untouched by faults and resume"
        )


class TestFig10Differential:
    def test_resume_after_kills_matches_clean(self, tmp_path, store_env):
        clean = _run(fig10_memutil)

        journal = CheckpointJournal(tmp_path / "journal10")
        seed, trace_params, _name = suite_specs(
            count=TRACE_COUNT, params=PARAMS
        )[7]
        corrupt_file(store_env.path(seed, trace_params), mode="truncate")
        with telemetry.capture() as tel:
            with settings.using(
                policy=ResiliencePolicy(
                    journal=journal,
                    retry=_fast_retry(max_retries=2),
                    faults=FaultPlan(kill_indices=DOOMED, kill_attempts=3),
                    on_failure="record",
                )
            ):
                _run(fig10_memutil)
        counters = tel.manifest(command="fig10-degraded")["counters"]
        assert counters["resilience.failures"] == len(DOOMED)
        assert counters["trace.store_quarantined"] == 1

        with telemetry.capture() as tel:
            with settings.using(policy=ResiliencePolicy(journal=journal)):
                resumed = _run(fig10_memutil)
        counters = tel.manifest(command="fig10-resumed")["counters"]
        assert counters["resilience.resumed"] == TRACE_COUNT - len(DOOMED)
        assert resumed == clean

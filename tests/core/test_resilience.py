"""The resilience layer: journal, retry, degradation, policy resolution."""

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core import resilience, runner, settings, telemetry
from repro.core.errors import ConfigError, SimulationError
from repro.core.faults import FaultPlan
from repro.core.resilience import (
    CheckpointJournal,
    ResiliencePolicy,
    RetryPolicy,
    TaskFailure,
    resilient_map,
)

NO_SLEEP = lambda _s: None  # noqa: E731 — backoff stub for fast tests


def fast_retry(**kwargs):
    kwargs.setdefault("backoff_base_s", 0.0)
    kwargs.setdefault("sleep", NO_SLEEP)
    return RetryPolicy(**kwargs)


def square(x):
    return x * x


def slow_square(x):
    time.sleep(0.5)
    return x * x


def key_of(x):
    return f"key-{x}"


def fail_on_two(x):
    if x == 2:
        raise ValueError(f"bad item {x}")
    return x * x


class InflightCountingPool(ProcessPoolExecutor):
    """A pool that records the most tasks it ever had outstanding.

    The pool drops a work item before it completes the item's future,
    so the count never includes a task the scheduler already collected.
    """

    most = 0

    def submit(self, fn, /, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        cls = type(self)
        cls.most = max(cls.most, len(self._pending_work_items))
        return future


class SubmitAfterBreakPool(ProcessPoolExecutor):
    """A pool whose third submission waits until the pool has broken.

    This pins the window between collecting a result and the next
    submission, during which a worker can die unobserved.
    """

    submissions = 0

    def submit(self, fn, /, *args, **kwargs):
        type(self).submissions += 1
        if type(self).submissions == 3:
            deadline = time.monotonic() + 10.0
            while not self._broken and time.monotonic() < deadline:
                time.sleep(0.01)
        return super().submit(fn, *args, **kwargs)


class TestRetryPolicy:
    def test_backoff_schedule(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, max_backoff_s=0.3
        )
        assert policy.backoff_s(0) == pytest.approx(0.1)
        assert policy.backoff_s(1) == pytest.approx(0.2)
        assert policy.backoff_s(2) == pytest.approx(0.3)  # capped
        assert policy.backoff_s(9) == pytest.approx(0.3)

    def test_attempts(self):
        assert RetryPolicy(max_retries=0).attempts == 1
        assert RetryPolicy(max_retries=3).attempts == 4

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(max_retries=True)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(timeout_s=0)

    @pytest.mark.parametrize(
        "field",
        ["timeout_s", "backoff_base_s", "backoff_factor", "max_backoff_s"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        # A NaN slips past ``<``/``<=`` range checks and would make
        # ``backoff_s`` return nan; only ``timeout_s=None`` means "none".
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            RetryPolicy(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), 1.5, float("inf")])
    def test_max_retries_must_be_an_integer(self, value):
        # ``< 0`` is false for each of these; ``attempts`` would read
        # nan, 2.5 or inf, and inf retries an always-failing task forever.
        with pytest.raises(ConfigError, match="max_retries must be an"):
            RetryPolicy(max_retries=value)

    def test_numpy_integer_retries_accepted(self):
        assert RetryPolicy(max_retries=np.int64(2)).attempts == 3


class TestCheckpointJournal:
    def test_miss_then_hit_round_trip(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        assert journal.get("k") is runner.MISSING
        journal.put("k", {"answer": 42})
        assert journal.get("k") == {"answer": 42}
        assert (journal.hits, journal.misses, journal.writes) == (1, 1, 1)

    def test_corrupt_entry_quarantined_not_rewritten_in_place(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        journal.put("k", [1, 2, 3])
        journal.entry_path("k").write_bytes(b"\x80\x05 not a pickle")
        with telemetry.capture() as tel:
            assert journal.get("k") is runner.MISSING
        assert tel.counters["resilience.journal_quarantined"] == 1
        assert not journal.entry_path("k").exists()
        quarantined = list(journal.quarantine_dir.iterdir())
        assert len(quarantined) == 1
        assert quarantined[0].name.endswith(".quarantined")

    def test_failure_records_merge_and_round_trip(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        first = TaskFailure(0, "a", 3, "ValueError", "boom")
        journal.record_failures([first])
        second = TaskFailure(1, "b", 2, "TimeoutError", "slow")
        journal.record_failures([second])
        assert journal.failures() == [first, second]
        # Re-recording the same (key, index) replaces, not duplicates.
        journal.record_failures([TaskFailure(0, "a", 4, "ValueError", "x")])
        assert len(journal.failures()) == 2

    def test_resolved_keys_clear_recorded_failures(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        journal.record_failures([
            TaskFailure(0, "a", 2, "ValueError", "boom"),
            TaskFailure(1, "b", 2, "ValueError", "boom"),
        ])
        journal.record_failures([], resolved=["a", None])
        assert [f.key for f in journal.failures()] == ["b"]
        journal.record_failures([], resolved=["b"])
        assert journal.failures() == []

    def test_record_failures_skips_rewrite_when_unchanged(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        journal.record_failures([], resolved=["never-failed"])
        assert not journal.meta_path.exists()
        failure = TaskFailure(0, "a", 2, "ValueError", "boom")
        journal.record_failures([failure])
        stamp = journal.meta_path.stat().st_mtime_ns
        journal.record_failures([failure], resolved=["unrelated"])
        assert journal.meta_path.stat().st_mtime_ns == stamp

    def test_put_is_atomic(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        journal.put("k", "value")
        leftovers = [
            p for p in journal.directory.iterdir() if ".tmp-" in p.name
        ]
        assert leftovers == []


class TestResilientMapSerial:
    def test_plain_map_matches_inputs(self):
        assert resilient_map(square, [1, 2, 3], key_fn=key_of, jobs=1) == [
            1, 4, 9,
        ]

    def test_retries_recover_from_injected_kills(self, tmp_path):
        policy = ResiliencePolicy(
            retry=fast_retry(max_retries=2),
            faults=FaultPlan(kill_indices=(0, 2), kill_attempts=1),
        )
        with telemetry.capture() as tel:
            out = resilient_map(
                square, [1, 2, 3], key_fn=key_of, jobs=1, policy=policy
            )
        assert out == [1, 4, 9]
        assert tel.counters["resilience.retries"] == 2

    def test_exhausted_retries_degrade_and_record(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        policy = ResiliencePolicy(
            journal=journal,
            retry=fast_retry(max_retries=1),
            faults=FaultPlan(kill_indices=(1,), kill_attempts=99),
            on_failure="record",
        )
        with telemetry.capture() as tel:
            out = resilient_map(
                square, [1, 2, 3], key_fn=key_of, jobs=1, policy=policy
            )
        # The degraded seed stays in its slot as a structured record, so
        # results can never silently misalign with inputs.
        assert len(out) == 3
        assert (out[0], out[2]) == (1, 9)
        assert isinstance(out[1], TaskFailure)
        assert tel.counters["resilience.failures"] == 1
        [failure] = journal.failures()
        assert failure.key == key_of(2)
        assert failure.attempts == 2
        assert failure.error_type == "InjectedFault"
        [recorded] = tel.manifest()["failures"]
        assert recorded["error_type"] == "InjectedFault"

    def test_drop_failures_makes_degradation_explicit(self):
        policy = ResiliencePolicy(
            retry=fast_retry(max_retries=0),
            faults=FaultPlan(kill_indices=(1,), kill_attempts=99),
            on_failure="record",
        )
        with telemetry.capture() as tel:
            out = resilient_map(
                square, [1, 2, 3], key_fn=key_of, jobs=1, policy=policy
            )
            survivors = resilience.drop_failures(out)
        assert survivors == [1, 9]
        assert tel.counters["resilience.degraded_dropped"] == 1

    def test_no_policy_runs_once_and_chains_the_task_error(self):
        # A task is a pure function of its item, so with no policy a
        # failure is not retried, and the task's own exception stays
        # reachable (with its traceback) as the cause.
        assert settings.current().policy is None
        calls = []

        def tracked(x):
            calls.append(x)
            return fail_on_two(x)

        with pytest.raises(
            SimulationError, match="1/2 tasks failed after 1 attempts"
        ) as info:
            resilient_map(tracked, [1, 2], key_fn=key_of, jobs=1)
        assert calls == [1, 2]
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value.__cause__) == "bad item 2"
        assert info.value.__cause__.__traceback__ is not None

    def test_on_failure_raise_is_the_default(self):
        assert ResiliencePolicy().on_failure == "raise"
        policy = ResiliencePolicy(
            retry=fast_retry(max_retries=0),
            faults=FaultPlan(kill_indices=(0,), kill_attempts=99),
        )
        with pytest.raises(SimulationError, match="1/2 tasks failed"):
            resilient_map(
                square, [1, 2], key_fn=key_of, jobs=1, policy=policy
            )

    def test_raise_still_checkpoints_survivors(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        policy = ResiliencePolicy(
            journal=journal,
            retry=fast_retry(max_retries=0),
            faults=FaultPlan(kill_indices=(1,), kill_attempts=99),
        )
        with pytest.raises(SimulationError):
            resilient_map(
                square, [1, 2, 3], key_fn=key_of, jobs=1, policy=policy
            )
        # The survivors are journaled before the raise, so a fixed
        # rerun resumes instead of recomputing.
        assert journal.get(key_of(1)) == 1
        assert journal.get(key_of(3)) == 9
        [failure] = journal.failures()
        assert failure.key == key_of(2)

    def test_resume_skips_completed_work(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        policy = ResiliencePolicy(journal=journal, retry=fast_retry())
        calls = []

        def tracked(x):
            calls.append(x)
            return x * x

        first = resilient_map(
            tracked, [1, 2, 3], key_fn=key_of, jobs=1, policy=policy
        )
        assert calls == [1, 2, 3]
        with telemetry.capture() as tel:
            second = resilient_map(
                tracked, [1, 2, 3], key_fn=key_of, jobs=1, policy=policy
            )
        assert second == first
        assert calls == [1, 2, 3]  # nothing recomputed
        assert tel.counters["resilience.resumed"] == 3

    def test_partial_journal_resumes_bit_identically(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        policy = ResiliencePolicy(journal=journal, retry=fast_retry())
        clean = resilient_map(square, [1, 2, 3, 4], key_fn=key_of, jobs=1)
        # Pretend the run died after two tasks: journal only 1 and 3.
        journal.put(key_of(1), 1)
        journal.put(key_of(3), 9)
        with telemetry.capture() as tel:
            resumed = resilient_map(
                square, [1, 2, 3, 4], key_fn=key_of, jobs=1, policy=policy
            )
        assert resumed == clean
        assert tel.counters["resilience.resumed"] == 2

    def test_successful_resume_clears_recorded_failures(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        doomed = ResiliencePolicy(
            journal=journal,
            retry=fast_retry(max_retries=0),
            faults=FaultPlan(kill_indices=(1,), kill_attempts=99),
            on_failure="record",
        )
        resilient_map(square, [1, 2, 3], key_fn=key_of, jobs=1, policy=doomed)
        assert [f.key for f in journal.failures()] == [key_of(2)]
        # Faults cleared: the resumed run recomputes only the casualty
        # and the journal stops reporting it as failed.
        healed = ResiliencePolicy(journal=journal, retry=fast_retry())
        out = resilient_map(
            square, [1, 2, 3], key_fn=key_of, jobs=1, policy=healed
        )
        assert out == [1, 4, 9]
        assert journal.failures() == []

    def test_backoff_sleeps_follow_the_schedule(self):
        sleeps = []
        policy = ResiliencePolicy(
            retry=RetryPolicy(
                max_retries=3,
                backoff_base_s=0.1,
                backoff_factor=2.0,
                max_backoff_s=10.0,
                sleep=sleeps.append,
            ),
            faults=FaultPlan(kill_indices=(0,), kill_attempts=3),
        )
        out = resilient_map(square, [5], key_fn=key_of, jobs=1, policy=policy)
        assert out == [25]
        assert sleeps == pytest.approx([0.1, 0.2, 0.4])


class TestResilientMapParallel:
    def test_matches_serial(self, tmp_path):
        serial = resilient_map(square, list(range(6)), key_fn=key_of, jobs=1)
        parallel = resilient_map(
            square, list(range(6)), key_fn=key_of, jobs=2
        )
        assert parallel == serial

    def test_no_policy_chains_the_worker_error(self):
        with telemetry.capture() as tel:
            with pytest.raises(SimulationError) as info:
                resilient_map(fail_on_two, [1, 2, 3], jobs=2)
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value.__cause__) == "bad item 2"
        assert "resilience.retries" not in tel.counters
        assert tel.counters["resilience.failures"] == 1

    @pytest.mark.parametrize("timeout_s, cap", [(None, 4), (30.0, 2)])
    def test_inflight_cap_follows_the_timeout(
        self, monkeypatch, timeout_s, cap
    ):
        # Without a timeout each of the 2 workers keeps one task queued
        # behind the one it runs; with one, a deadline set at submission
        # must measure execution, so only one task per worker is out.
        monkeypatch.setattr(InflightCountingPool, "most", 0)
        monkeypatch.setattr(
            resilience, "ProcessPoolExecutor", InflightCountingPool
        )
        policy = ResiliencePolicy(
            retry=fast_retry(max_retries=0, timeout_s=timeout_s),
            faults=FaultPlan(latency_s=0.2),
        )
        out = resilient_map(
            square, list(range(8)), key_fn=key_of, jobs=2, policy=policy
        )
        assert out == [x * x for x in range(8)]
        assert InflightCountingPool.most == cap

    def test_exception_kills_retried_in_workers(self):
        policy = ResiliencePolicy(
            retry=fast_retry(max_retries=2),
            faults=FaultPlan(kill_indices=(1, 3), kill_attempts=1),
        )
        with telemetry.capture() as tel:
            out = resilient_map(
                square, [1, 2, 3, 4], key_fn=key_of, jobs=2, policy=policy
            )
        assert out == [1, 4, 9, 16]
        assert tel.counters["resilience.retries"] == 2

    def test_hard_worker_kill_recovers_via_pool_restart(self):
        policy = ResiliencePolicy(
            retry=fast_retry(max_retries=3),
            faults=FaultPlan(
                kill_indices=(0,), kill_attempts=1, kill_mode="hard"
            ),
        )
        with telemetry.capture() as tel:
            out = resilient_map(
                square, [1, 2, 3, 4], key_fn=key_of, jobs=2, policy=policy
            )
        assert out == [1, 4, 9, 16]
        assert tel.counters["resilience.pool_restarts"] >= 1

    def test_task_timeout_reclaims_stuck_worker(self):
        policy = ResiliencePolicy(
            retry=fast_retry(max_retries=2, timeout_s=0.5),
            faults=FaultPlan(
                latency_s=5.0, latency_indices=(2,), kill_attempts=0
            ),
            on_failure="record",
        )
        # The fault plan delays index 2 on every attempt, so it times
        # out repeatedly and degrades to a TaskFailure in its slot.
        with telemetry.capture() as tel:
            out = resilient_map(
                square, [1, 2, 3, 4], key_fn=key_of, jobs=2, policy=policy
            )
        assert (out[0], out[1], out[3]) == (1, 4, 16)
        assert isinstance(out[2], TaskFailure)
        assert out[2].error_type == "TimeoutError"
        assert tel.counters["resilience.timeouts"] >= 1
        assert tel.counters["resilience.failures"] == 1

    def test_timeout_measures_execution_not_queueing(self):
        # 8 tasks x ~0.5 s over 2 workers is ~2 s of wall clock; a task
        # that only starts in the fourth wave spends ~1.5 s queued.  The
        # 1.2 s timeout must bound each task's *execution*, so a healthy
        # backlog finishes with zero timeouts — deadlines that started
        # at submission would spuriously expire the later waves.
        policy = ResiliencePolicy(
            retry=fast_retry(max_retries=1, timeout_s=1.2),
        )
        with telemetry.capture() as tel:
            out = resilient_map(
                slow_square, list(range(8)), key_fn=key_of, jobs=2,
                policy=policy,
            )
        assert out == [x * x for x in range(8)]
        assert "resilience.timeouts" not in tel.counters
        assert "resilience.failures" not in tel.counters

    def test_persistent_worker_killer_degrades_without_charging_others(
        self,
    ):
        # Task 0 hard-kills its worker on every attempt.  The culprit of
        # a broken pool shared by several tasks cannot be attributed, so
        # nobody's retry budget is charged; the casualties rerun solo,
        # where the killer's breakages are its own.  It degrades, while
        # every innocent bystander completes.
        policy = ResiliencePolicy(
            retry=fast_retry(max_retries=1),
            faults=FaultPlan(
                kill_indices=(0,), kill_attempts=99, kill_mode="hard"
            ),
            on_failure="record",
        )
        with telemetry.capture() as tel:
            out = resilient_map(
                square, [1, 2, 3, 4], key_fn=key_of, jobs=2, policy=policy
            )
        assert isinstance(out[0], TaskFailure)
        assert (out[1], out[2], out[3]) == (4, 9, 16)
        assert tel.counters["resilience.pool_restarts"] >= 2
        assert tel.counters["resilience.failures"] == 1

    def test_slow_bystander_of_a_worker_killer_completes(self):
        # Task 1 is slow, so it is still running whenever task 0 kills
        # its worker.  It must rerun apart from the killer and complete,
        # not degrade with it.
        policy = ResiliencePolicy(
            retry=fast_retry(max_retries=1),
            faults=FaultPlan(
                kill_indices=(0,), kill_attempts=99, kill_mode="hard",
                latency_s=0.3, latency_indices=(1,),
            ),
            on_failure="record",
        )
        out = resilient_map(
            square, [1, 2, 3, 4], key_fn=key_of, jobs=2, policy=policy
        )
        assert (out[1], out[2], out[3]) == (4, 9, 16)
        assert isinstance(out[0], TaskFailure)
        assert out[0].attempts == 3
        assert out[0].error_type == "BrokenProcessPool"

    def test_pool_that_broke_before_a_submission_is_recycled(
        self, monkeypatch
    ):
        # Task 1 completes while task 0 is still alive; task 0 then
        # kills its worker before task 2 is submitted, so the submission
        # itself raises BrokenProcessPool.  The scheduler must collect
        # the breakage from the task in flight, not crash.
        monkeypatch.setattr(SubmitAfterBreakPool, "submissions", 0)
        monkeypatch.setattr(
            resilience, "ProcessPoolExecutor", SubmitAfterBreakPool
        )
        policy = ResiliencePolicy(
            retry=fast_retry(max_retries=1),
            faults=FaultPlan(
                kill_indices=(0,), kill_attempts=99, kill_mode="hard",
                latency_s=0.2, latency_indices=(0,),
            ),
            on_failure="record",
        )
        out = resilient_map(
            square, [1, 2, 3, 4], key_fn=key_of, jobs=2, policy=policy
        )
        assert (out[1], out[2], out[3]) == (4, 9, 16)
        assert isinstance(out[0], TaskFailure)

    def test_parallel_backoff_defers_instead_of_blocking(self):
        sleeps = []
        policy = ResiliencePolicy(
            retry=RetryPolicy(
                max_retries=2,
                backoff_base_s=0.05,
                max_backoff_s=0.05,
                sleep=sleeps.append,
            ),
            faults=FaultPlan(kill_indices=(0, 1), kill_attempts=1),
        )
        out = resilient_map(
            square, [1, 2], key_fn=key_of, jobs=2, policy=policy
        )
        assert out == [1, 4]
        # The injected sleep is only consulted when the scheduler is
        # otherwise idle; backoff never blocks result collection.
        assert sleeps
        assert all(0.0 <= s <= 0.05 for s in sleeps)

    def test_checkpoints_survive_for_resume_across_modes(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        policy = ResiliencePolicy(journal=journal, retry=fast_retry())
        parallel = resilient_map(
            square, list(range(5)), key_fn=key_of, jobs=2, policy=policy
        )
        with telemetry.capture() as tel:
            serial = resilient_map(
                square, list(range(5)), key_fn=key_of, jobs=1, policy=policy
            )
        assert serial == parallel
        assert tel.counters["resilience.resumed"] == 5


class TestRunnerRouting:
    """How the one map resolves its policy and cache per call."""

    def test_active_policy_applies_without_an_argument(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        policy = ResiliencePolicy(journal=journal, retry=fast_retry())
        with settings.using(policy=policy):
            assert settings.current().policy is policy
            out = resilient_map(
                square, [1, 2, 3], key_fn=key_of, jobs=1, cache=None
            )
        assert out == [1, 4, 9]
        assert journal.writes == 3
        assert settings.current().policy is None

    def test_cache_hits_are_rejournaled_for_future_resumes(self, tmp_path):
        cache = runner.DiskCache(tmp_path / "cache")
        cache.put(key_of(2), 4)
        journal = CheckpointJournal(tmp_path / "j")
        policy = ResiliencePolicy(journal=journal, retry=fast_retry())
        out = resilient_map(
            square, [1, 2, 3], key_fn=key_of, jobs=1, cache=cache,
            policy=policy,
        )
        assert out == [1, 4, 9]
        assert journal.get(key_of(2)) == 4

    def test_no_policy_means_no_routing(self, tmp_path):
        # Without a policy the map still consults the cache, but has no
        # journal to checkpoint into and no faults to inject.
        cache = runner.DiskCache(tmp_path / "cache")
        with telemetry.capture() as tel:
            out = resilient_map(square, [1, 2], key_fn=key_of, cache=cache)
        assert out == [1, 4]
        assert cache.misses == 2 and cache.writes == 2
        assert not any(name.startswith("resilience.") for name in tel.counters)


class TestDiskCacheQuarantine:
    def test_corrupt_entry_quarantined(self, tmp_path):
        cache = runner.DiskCache(tmp_path / "cache")
        cache.put("k", [1, 2])
        path = tmp_path / "cache" / "k.pkl"
        path.write_bytes(b"definitely not a pickle")
        with telemetry.capture() as tel:
            assert cache.get("k") is runner.MISSING
        assert cache.quarantined == 1
        assert tel.counters["runner.cache_quarantined"] == 1
        assert not path.exists()
        assert list((tmp_path / "cache" / "quarantine").iterdir())

    def test_absent_entry_is_a_plain_miss(self, tmp_path):
        cache = runner.DiskCache(tmp_path / "cache")
        assert cache.get("nope") is runner.MISSING
        assert cache.quarantined == 0

    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = runner.DiskCache(tmp_path / "cache")
        cache.put("k", "value")
        names = [p.name for p in (tmp_path / "cache").iterdir()]
        assert names == ["k.pkl"]


class TestTaskFailure:
    def test_dict_round_trip(self):
        failure = TaskFailure(3, "k3", 2, "ValueError", "boom")
        assert TaskFailure.from_dict(failure.to_dict()) == failure

    def test_pickles(self):
        failure = TaskFailure(3, "k3", 2, "ValueError", "boom")
        assert pickle.loads(pickle.dumps(failure)) == failure

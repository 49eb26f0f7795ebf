"""Fault-tolerant execution: checkpoint journals, retries, degradation.

PRs 1–4 made the suite experiments fast (parallel, memoized, columnar)
but brittle: one dead worker, one corrupt store entry, or one OOM'd
seed threw away a whole 35-trace run.  This layer makes partial failure
a first-class outcome:

- :class:`CheckpointJournal` — a content-hash-keyed on-disk journal of
  per-task results: the same :class:`repro.core.store.PickleStore` as
  the disk cache, plus a ``journal.json`` failures sidecar.  A rerun
  against the same journal — the CLI's ``--resume`` — loads every
  completed task and executes only the rest; because every task is a
  pure function of its item, the resumed suite is bit-identical to an
  uninterrupted one.
- :class:`RetryPolicy` — bounded retry with exponential backoff and an
  optional per-task timeout.  Task exceptions and timeouts consume
  attempts.  A worker death (``BrokenProcessPool``) cannot be
  attributed while several tasks share the pool, so each casualty
  requeues uncharged and then reruns alone; a breakage during a solo
  run has one possible culprit and is charged to it, so a persistent
  worker-killer degrades while its bystanders complete.  The pool is
  recycled after every breakage so one bad task cannot take the suite
  down.
- **graceful degradation** — a task that exhausts its attempts becomes
  a structured :class:`TaskFailure`, recorded in the journal and in the
  telemetry manifest.  With ``on_failure="raise"`` (the default) the
  suite aborts — after checkpointing every survivor, so a rerun
  resumes; with ``on_failure="record"`` (the CLI's ``--keep-going``)
  the failure is returned *in place*, so the result list always has
  one entry per input and callers can never silently misalign.
  :func:`drop_failures` makes computing over the survivors an explicit
  decision.
- :func:`resilient_map` — the one map every fan-out in the package
  runs on: journal lookups, disk-cache lookups, retried serial or
  process-pool execution of the misses, checkpoint after every
  completion.  It runs under the run settings' policy, which the CLI's
  ``--resume`` / ``--retries`` / ``--task-timeout`` / ``--faults`` /
  ``--keep-going`` flags set (see :mod:`repro.core.settings`), so every
  suite experiment inherits resilience without code changes; with no
  policy it makes one attempt per task and raises on failure.

Telemetry: counters ``resilience.resumed`` / ``.checkpointed`` /
``.retries`` / ``.timeouts`` / ``.failures`` / ``.degraded_dropped`` /
``.pool_restarts`` / ``.journal_quarantined``, the ``runner.*`` task
counters and timer, and a ``resilience.map`` span per fan-out.  Fault
injection (``repro.core.faults``) hooks in here and nowhere else.  See
``docs/resilience.md``.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from . import provenance, runner, settings, telemetry
from .checks import check_count, check_finite
from .errors import ConfigError, SimulationError
from .faults import FaultPlan
from .ioutil import atomic_write_text
from .store import PickleStore

T = TypeVar("T")
R = TypeVar("R")

#: Journal metadata schema; bump on breaking layout changes.
JOURNAL_SCHEMA = "repro-journal/1"


# -- retry policy --------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and per-task timeout.

    A task gets ``max_retries + 1`` attempts.  Attempt ``k``'s failure
    is followed by a ``backoff_base_s * backoff_factor**k`` delay
    (capped at ``max_backoff_s``) before the retry.  ``timeout_s`` (when
    set) bounds each *attempt's* wall clock in parallel runs, measured
    from when the attempt starts executing — with a timeout the
    scheduler never submits more tasks than there are workers, so
    queueing behind busy workers does not burn a task's budget.
    ``max_retries`` must be an integer.  A timed out attempt counts as a
    failure and the worker pool is recycled to reclaim the stuck worker.
    ``sleep`` is injectable so tests can assert backoff schedules
    without waiting; parallel runs defer resubmission instead of
    blocking the scheduler and only call ``sleep`` when the backoff
    leaves them otherwise idle.  Every duration must be finite:
    ``timeout_s=None`` is the only way to ask for no timeout.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0
    timeout_s: Optional[float] = None
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        check_count(self.max_retries, "max_retries")
        check_finite(self.backoff_base_s, "backoff_base_s", at_least=0)
        check_finite(self.max_backoff_s, "max_backoff_s", at_least=0)
        check_finite(self.backoff_factor, "backoff_factor", at_least=1)
        if self.timeout_s is not None:
            check_finite(self.timeout_s, "timeout_s", above=0)

    @property
    def attempts(self) -> int:
        """Total executions allowed per task."""
        return self.max_retries + 1

    def backoff_s(self, failed_attempt: int) -> float:
        """The sleep after attempt ``failed_attempt`` (0-based) fails."""
        delay = self.backoff_base_s * self.backoff_factor**failed_attempt
        return min(delay, self.max_backoff_s)


# -- structured failure record -------------------------------------------------


@dataclass(frozen=True)
class TaskFailure:
    """One task that exhausted its attempts (the degraded-result record)."""

    index: int
    key: Optional[str]
    attempts: int
    error_type: str
    message: str

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form, as stored in journals and manifests."""
        return {
            "index": self.index,
            "key": self.key,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TaskFailure":
        """Inverse of :meth:`to_dict`."""
        return cls(
            index=int(data["index"]),
            key=data.get("key"),
            attempts=int(data["attempts"]),
            error_type=str(data["error_type"]),
            message=str(data["message"]),
        )


# -- checkpoint journal --------------------------------------------------------


class CheckpointJournal(PickleStore):
    """Content-keyed on-disk journal of completed task results.

    Entries are the disk cache's pickle store: one pickle per task,
    named by the task's content key (``runner.content_key`` over the
    work item); a corrupt entry quarantines and reruns as a miss.  A
    sidecar ``journal.json`` records the schema and any
    :class:`TaskFailure`\\ s so a resumed run knows what degraded
    previously.
    """

    counter_names = {
        "writes": "resilience.checkpointed",
        "quarantined": "resilience.journal_quarantined",
    }

    def __init__(self, directory: Optional[Path] = None) -> None:
        super().__init__(
            directory
            if directory is not None
            else settings.current().journal_dir
        )

    @property
    def meta_path(self) -> Path:
        """The ``journal.json`` sidecar (schema + recorded failures)."""
        return self.directory / "journal.json"

    # -- metadata --------------------------------------------------------------

    def record_failures(
        self,
        failures: Sequence[TaskFailure],
        resolved: Sequence[Optional[str]] = (),
    ) -> None:
        """Merge this run's failures into ``journal.json`` atomically.

        ``resolved`` is the content keys that completed successfully in
        this run: any previously recorded failure for one of those keys
        is dropped, so a fully successful resume leaves the journal
        reporting no failures.  The sidecar is rewritten only when the
        failure set actually changed.
        """
        meta = self.load_meta()
        existing = meta.get("failures", [])
        resolved_keys = {key for key in resolved if key is not None}
        kept = [f for f in existing if f.get("key") not in resolved_keys]
        seen = {(f.get("key"), f.get("index")): f for f in kept}
        changed = len(kept) != len(existing)
        for failure in failures:
            slot = (failure.key, failure.index)
            entry = failure.to_dict()
            changed = changed or seen.get(slot) != entry
            seen[slot] = entry
        if not changed:
            return
        meta["schema"] = JOURNAL_SCHEMA
        meta["failures"] = sorted(
            seen.values(), key=lambda f: (f["index"], f["key"] or "")
        )
        import json

        atomic_write_text(self.meta_path, json.dumps(meta, indent=2) + "\n")

    def load_meta(self) -> Dict[str, Any]:
        """The journal's metadata document (empty when absent/corrupt)."""
        import json

        try:
            with open(self.meta_path, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
        except (OSError, ValueError):
            return {}
        return meta if isinstance(meta, dict) else {}

    def failures(self) -> List[TaskFailure]:
        """The recorded failures, as structured records."""
        out = []
        for data in self.load_meta().get("failures", []):
            try:
                out.append(TaskFailure.from_dict(data))
            except (KeyError, TypeError, ValueError):
                continue
        return out


# -- policy --------------------------------------------------------------------


@dataclass(frozen=True)
class ResiliencePolicy:
    """Everything :func:`resilient_map` needs to execute a fan-out.

    ``on_failure`` defaults to ``"raise"``: a task that exhausts its
    attempts aborts the map (after checkpointing the survivors, so a
    rerun resumes).  ``"record"`` — the CLI's ``--keep-going`` — is the
    explicit opt-in for degraded results: the :class:`TaskFailure` is
    returned in the task's slot instead.
    """

    journal: Optional[CheckpointJournal] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    faults: Optional[FaultPlan] = None
    on_failure: str = "raise"

    def __post_init__(self) -> None:
        if self.on_failure not in ("record", "raise"):
            raise ConfigError(
                f"on_failure must be 'record' or 'raise', "
                f"got {self.on_failure!r}"
            )


#: The policy of a map that gets none, by argument or from the settings:
#: one attempt, no journal, no faults, and a failure raises.  A task is a
#: pure function of its item, so a retry would repeat the failure.
PLAIN_POLICY = ResiliencePolicy(retry=RetryPolicy(max_retries=0))


# -- execution -----------------------------------------------------------------


class _ResilientTask:
    """Picklable task wrapper: fault injection + worker instrumentation.

    The fault plan fires in the executing process, so hard kills really
    kill the worker.  The task then runs under a *fresh* capture
    (shadowing whatever the worker inherited via fork), so the drained
    counters and timers are exactly this task's activity and merge
    associatively into the parent's manifest through
    ``Telemetry.absorb``.  Whether to capture is decided in the parent
    at submit time, so workers never need the parent's sink.  Returns
    ``(result, drained_telemetry)``.
    """

    def __init__(
        self,
        fn: Callable[[T], R],
        faults: Optional[FaultPlan],
        index: int,
        attempt: int,
    ) -> None:
        self._fn = fn
        self._faults = faults
        self._index = index
        self._attempt = attempt
        self._telemetry = telemetry.enabled()

    def __call__(self, item: T):
        if self._faults is not None:
            self._faults.apply(self._index, self._attempt)
        if not self._telemetry:
            return self._fn(item), None
        with telemetry.capture() as tel:
            with tel.timer("runner.task"):
                result = self._fn(item)
        return result, tel.drain()


@dataclass
class _Pending:
    """Book-keeping for one not-yet-completed task.

    ``attempt`` counts executions started (it feeds fault plans and the
    failure record); ``charged`` counts only the failures attributable
    to the task itself, which is what exhausts the retry budget.  A pool
    breakage with several tasks in flight has no known culprit, so it
    advances ``attempt`` but charges nobody; it sets ``solo`` instead,
    and a solo task only runs with nothing else in flight, so its next
    breakage is its own.  ``not_before`` defers a backed-off
    resubmission without sleeping the scheduler.
    """

    index: int
    item: Any
    attempt: int = 0
    charged: int = 0
    solo: bool = False
    not_before: float = 0.0
    last_error: Optional[BaseException] = None


def _describe(exc: BaseException) -> Tuple[str, str]:
    return type(exc).__name__, str(exc) or type(exc).__name__


def _run_serial(
    fn: Callable[[T], R],
    pending: List[_Pending],
    policy: ResiliencePolicy,
) -> Dict[int, object]:
    """In-process execution with retry (the ``jobs=1`` path)."""
    retry = policy.retry
    tel = telemetry.active()
    outcomes: Dict[int, object] = {}
    for task in pending:
        while True:
            try:
                if policy.faults is not None:
                    policy.faults.apply(task.index, task.attempt)
                if tel is not None:
                    with tel.timer("runner.task"):
                        outcomes[task.index] = fn(task.item)
                else:
                    outcomes[task.index] = fn(task.item)
                break
            except Exception as exc:  # noqa: BLE001 — retries bound it
                task.last_error = exc
                task.attempt += 1
                task.charged += 1
                if task.charged >= retry.attempts:
                    name, message = _describe(exc)
                    outcomes[task.index] = TaskFailure(
                        index=task.index,
                        key=None,
                        attempts=task.attempt,
                        error_type=name,
                        message=message,
                    )
                    break
                telemetry.count("resilience.retries")
                retry.sleep(retry.backoff_s(task.attempt - 1))
    return outcomes


def _run_parallel(
    fn: Callable[[T], R],
    pending: List[_Pending],
    policy: ResiliencePolicy,
    workers: int,
) -> Dict[int, object]:
    """Process-pool execution with retry, timeout, and pool recycling.

    Tasks are submitted as futures complete, never all at once: a worker
    death turns every task in flight into a casualty that reruns alone.
    With a ``timeout_s`` at most ``workers`` tasks are in flight, so a
    deadline — set at submission — measures execution, not time spent
    queued behind busy workers; without one, ``2 * workers`` are, so
    each worker has a task queued behind the one it runs and never waits
    on the scheduler.  Backed-off retries carry a per-task not-before time
    instead of sleeping the scheduler thread, so one retry's backoff
    never stalls the collection of everyone else's results.  Casualties
    of a pool breakage rerun solo (see :class:`_Pending`), so a breakage
    is only ever charged to the one task that was running.
    """
    retry = policy.retry
    tel = telemetry.active()
    cap = workers if retry.timeout_s is not None else 2 * workers
    outcomes: Dict[int, object] = {}
    queue: List[_Pending] = list(pending)
    pool = ProcessPoolExecutor(max_workers=workers)
    inflight: Dict[Any, Tuple[_Pending, Optional[float]]] = {}

    def fail(task: _Pending, exc: BaseException) -> None:
        name, message = _describe(exc)
        outcomes[task.index] = TaskFailure(
            index=task.index,
            key=None,
            attempts=task.attempt,
            error_type=name,
            message=message,
        )

    def fail_or_requeue(task: _Pending, exc: BaseException) -> None:
        """Charge one attempt to the task's own retry budget."""
        task.last_error = exc
        task.attempt += 1
        task.charged += 1
        if task.charged >= retry.attempts:
            fail(task, exc)
            return
        telemetry.count("resilience.retries")
        task.not_before = time.monotonic() + retry.backoff_s(
            task.charged - 1
        )
        queue.append(task)

    def requeue_after_break(task: _Pending, exc: BaseException) -> None:
        """Handle a task whose pool died under it.

        A solo task ran with nothing else in flight, so it killed its
        worker: charge it like any other failure.  Otherwise the culprit
        of the ``BrokenProcessPool`` cannot be attributed, so nobody's
        retry budget is consumed — ``attempt`` still advances (the
        execution really started and was destroyed), which keeps
        deterministic fault plans moving — and the task reruns solo.
        Each task is an uncharged casualty at most once, so a task that
        hard-kills its worker every time degrades after its own
        ``retry.attempts`` solo runs, and a bystander never shares the
        pool with it again.
        """
        if task.solo:
            fail_or_requeue(task, exc)
            return
        task.last_error = exc
        task.attempt += 1
        task.solo = True
        queue.append(task)

    def recycle_pool(old: ProcessPoolExecutor) -> ProcessPoolExecutor:
        old.shutdown(wait=False, cancel_futures=True)
        telemetry.count("resilience.pool_restarts")
        return ProcessPoolExecutor(max_workers=workers)

    def absorb(task: _Pending, result, drained) -> None:
        outcomes[task.index] = result
        if tel is not None and drained is not None:
            tel.absorb(*drained)

    try:
        while queue or inflight:
            now = time.monotonic()
            # A solo task runs with nothing else in flight.
            solo_running = any(t.solo for t, _ in inflight.values())
            i = 0
            while not solo_running and len(inflight) < cap and i < len(queue):
                if queue[i].not_before > now or (queue[i].solo and inflight):
                    i += 1
                    continue
                task = queue.pop(i)
                try:
                    future = pool.submit(
                        _ResilientTask(
                            fn, policy.faults, task.index, task.attempt
                        ),
                        task.item,
                    )
                except BrokenProcessPool:
                    # The pool broke after the last wait.  The tasks in
                    # flight report it on the next one; a worker lost
                    # while idle leaves nobody to, so recycle it here.
                    queue.insert(i, task)
                    if inflight:
                        break
                    pool = recycle_pool(pool)
                    continue
                deadline = (
                    time.monotonic() + retry.timeout_s
                    if retry.timeout_s is not None
                    else None
                )
                inflight[future] = (task, deadline)
                solo_running = task.solo
            if not inflight:
                # Everything runnable is backing off.  Sleep (injectable)
                # until the earliest not-before, then force it runnable so
                # a stubbed sleep cannot busy-spin.
                soonest = min(queue, key=lambda t: t.not_before)
                retry.sleep(max(0.0, soonest.not_before - time.monotonic()))
                soonest.not_before = 0.0
                continue
            wake_times = [d for _, d in inflight.values() if d is not None]
            if len(inflight) < cap and not solo_running:
                # A free slot is waiting on a backoff window (a solo task
                # waits for the tasks in flight instead).
                wake_times.extend(t.not_before for t in queue if not t.solo)
            wait_s = (
                max(0.0, min(wake_times) - time.monotonic())
                if wake_times
                else None
            )
            done, _ = wait(
                list(inflight), timeout=wait_s, return_when=FIRST_COMPLETED
            )
            broken = False
            for future in done:
                task, _deadline = inflight.pop(future)
                try:
                    result, drained = future.result()
                except (BrokenProcessPool, CancelledError) as exc:
                    broken = True
                    requeue_after_break(task, exc)
                except Exception as exc:  # noqa: BLE001 — retries bound it
                    fail_or_requeue(task, exc)
                else:
                    absorb(task, result, drained)
            now = time.monotonic()
            expired = [
                future
                for future, (_task, deadline) in inflight.items()
                if deadline is not None and deadline <= now
            ]
            if expired:
                # A stuck worker cannot be cancelled, only abandoned:
                # requeue everything in flight (expired tasks pay an
                # attempt, innocent bystanders do not) and recycle the
                # pool to reclaim the processes.
                for future in expired:
                    task, _deadline = inflight.pop(future)
                    telemetry.count("resilience.timeouts")
                    fail_or_requeue(
                        task,
                        TimeoutError(
                            f"task {task.index} exceeded "
                            f"{retry.timeout_s}s (attempt {task.attempt})"
                        ),
                    )
                for future, (task, _deadline) in inflight.items():
                    queue.append(task)
                inflight = {}
                pool = recycle_pool(pool)
            elif broken:
                # The pool died under us; every in-flight future fails
                # with BrokenProcessPool almost immediately.  Completed
                # results are kept; attributable task exceptions are
                # charged; breakage casualties requeue uncharged.
                for future, (task, _deadline) in inflight.items():
                    try:
                        result, drained = future.result(timeout=10.0)
                    except (BrokenProcessPool, CancelledError) as exc:
                        requeue_after_break(task, exc)
                    except Exception as exc:  # noqa: BLE001
                        fail_or_requeue(task, exc)
                    else:
                        absorb(task, result, drained)
                inflight = {}
                pool = recycle_pool(pool)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return outcomes


def resilient_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    key_fn: Optional[Callable[[T], str]] = None,
    jobs: Optional[int] = None,
    cache: Optional[runner.DiskCache] = None,
    policy: Optional[ResiliencePolicy] = None,
) -> List[R]:
    """Map ``fn`` over ``items``: the one fan-out of the package.

    Results come back in input order and each task is a pure function
    of its item, so the output is bit-identical across worker counts
    (``jobs``, resolved by :func:`repro.core.runner.resolve_jobs`),
    caches and resumes; ``fn`` and the items must pickle when more than
    one worker runs.  Worker telemetry folds back into this process's
    capture, so the counts match the serial path.

    ``jobs``, ``policy`` and ``cache`` default to the run settings
    (:func:`repro.core.settings.current`, read once per call): their
    worker count, their policy or else :data:`PLAIN_POLICY`, and a
    :class:`DiskCache` when their ``cache`` is on.  The journal, the
    cache and the settings' provenance log need ``key_fn``.

    Per item: checkpoint journal, disk cache, then retried execution.
    Every fresh completion is checkpointed (and cached) before the call
    returns, so a crash mid-suite loses at most the in-flight tasks.  A
    task that exhausts its attempts becomes a :class:`TaskFailure`,
    written to the journal and the telemetry manifest.  Under
    ``on_failure="raise"`` the map then raises :class:`SimulationError`
    from the first failed task's exception, after checkpointing the
    survivors so a rerun resumes; under ``"record"`` the failure is
    returned **in its task's slot**, so the list always has
    ``len(items)`` entries and never silently misaligns with the inputs
    (:func:`drop_failures` filters it explicitly).
    """
    items = list(items)
    run = settings.current()
    if policy is None:
        policy = run.policy if run.policy is not None else PLAIN_POLICY
    if cache is None and run.cache:
        cache = runner.DiskCache(run.cache_dir)
    journal = policy.journal
    keys: Optional[List[str]] = (
        [key_fn(item) for item in items] if key_fn is not None else None
    )

    tel = telemetry.active()
    if tel is not None:
        tel.count("runner.tasks", len(items))

    results: List[object] = [runner.MISSING] * len(items)
    if journal is not None and keys is not None:
        for i, key in enumerate(keys):
            value = journal.get(key)
            if value is not runner.MISSING:
                results[i] = value
                telemetry.count("resilience.resumed")
    if cache is not None and keys is not None:
        for i, key in enumerate(keys):
            if results[i] is runner.MISSING:
                value = cache.get(key)
                if value is not runner.MISSING:
                    results[i] = value
                    if journal is not None:
                        journal.put(key, value)

    pending = [
        _Pending(index=i, item=items[i])
        for i in range(len(items))
        if results[i] is runner.MISSING
    ]
    with telemetry.span("resilience.map"):
        if pending:
            resolved_jobs = runner.resolve_jobs(
                jobs if jobs is not None else run.jobs
            )
            if resolved_jobs <= 1 or len(pending) <= 1:
                outcomes = _run_serial(fn, pending, policy)
            else:
                workers = min(resolved_jobs, len(pending))
                if tel is not None:
                    tel.count("runner.parallel_tasks", len(pending))
                outcomes = _run_parallel(fn, pending, policy, workers)
            for index, outcome in outcomes.items():
                results[index] = outcome
                if isinstance(outcome, TaskFailure):
                    continue
                if keys is not None:
                    if journal is not None:
                        journal.put(keys[index], outcome)
                    if cache is not None:
                        cache.put(keys[index], outcome)

    failures: List[TaskFailure] = []
    for i, value in enumerate(results):
        if value is runner.MISSING:  # pragma: no cover — defensive
            value = TaskFailure(
                index=i,
                key=keys[i] if keys is not None else None,
                attempts=0,
                error_type="LostResult",
                message="task produced no outcome",
            )
            results[i] = value
        if isinstance(value, TaskFailure):
            if keys is not None and value.key is None:
                value = replace(value, key=keys[i])
                results[i] = value
            failures.append(value)
    if run.provenance is not None and keys is not None:
        for i, value in enumerate(results):
            if not isinstance(value, TaskFailure):
                provenance.record_task(keys[i], value)
    if journal is not None:
        # Reconcile journal.json: newly degraded tasks are recorded,
        # previously recorded failures whose key succeeded this run are
        # cleared — a fully successful resume leaves a clean journal.
        resolved = [
            keys[i]
            for i, value in enumerate(results)
            if not isinstance(value, TaskFailure)
        ] if keys is not None else []
        journal.record_failures(failures, resolved=resolved)
    if failures:
        telemetry.count("resilience.failures", len(failures))
        if tel is not None:
            for failure in failures:
                tel.record_failure(failure.to_dict())
        if policy.on_failure == "raise":
            detail = "; ".join(
                f"task {f.index}: {f.error_type}: {f.message}"
                for f in failures
            )
            cause = next(
                (
                    task.last_error
                    for task in pending
                    if isinstance(results[task.index], TaskFailure)
                ),
                None,
            )
            raise SimulationError(
                f"{len(failures)}/{len(items)} tasks failed after "
                f"{policy.retry.attempts} attempts: {detail}"
            ) from cause
    return list(results)


def drop_failures(results: Sequence[object]) -> List[object]:
    """The surviving results of a degraded map, failures removed.

    :func:`resilient_map` preserves input length by returning
    :class:`TaskFailure` placeholders at failed indices (under
    ``on_failure="record"``).  A caller that deliberately computes over
    the survivors — e.g. a suite experiment taking medians over the
    seeds that completed — calls this to make that decision explicit
    rather than inheriting a silently shortened list.  Dropping is
    counted (``resilience.degraded_dropped``) so a manifest shows when
    a figure was computed from fewer seeds than requested.
    """
    survivors = [r for r in results if not isinstance(r, TaskFailure)]
    dropped = len(results) - len(survivors)
    if dropped:
        telemetry.count("resilience.degraded_dropped", dropped)
    return survivors


__all__ = [
    "JOURNAL_SCHEMA",
    "PLAIN_POLICY",
    "CheckpointJournal",
    "ResiliencePolicy",
    "RetryPolicy",
    "TaskFailure",
    "drop_failures",
    "resilient_map",
]

"""The three workloads of the repository benchmark: evaluate, sweep, fleet.

Each workload builds its inputs from the run seed, times calls into the
program's public API with telemetry off, and checks every output against
the committed goldens.  Its traced variant repeats the same calls under
``repro.core.telemetry.capture()``: benchmark spans wrap the calls into
each layer, and the program's own counters and timers (folded back from
worker processes by ``Telemetry.absorb``) give the rest.  Nothing here
changes how the program runs.

Seeds: every input seed comes from a fixed pool (``seed % pool``), so any
``--seed`` maps to inputs whose expected outputs are in ``goldens.json``.
An ``evaluate`` or ``sweep`` run covers its whole pool of traces, in an
order the seed rotates, so runs differ by host noise and not by which
traces they drew.

Timing: the host is shared, and other tenants' load slows it in bursts
of seconds to minutes while the program's work stays the same.  Every
input is therefore timed at least twice, spread over the run, and a run
reports each input's fastest repeat (averaged over its inputs): noise
only ever adds time to deterministic work.
"""

from __future__ import annotations

import itertools
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

from repro.allocation.cluster import ClusterSpec, adopt_everything
from repro.allocation.fleet import ClusterTask, FleetSpec, simulate_fleet
from repro.allocation.traces import TraceParams, generate_trace
from repro.analysis.ablations import ADOPTION_RULES, adoption_policy
from repro.catalog.results import ResultsCatalog, payload_digest
from repro.catalog.sweep import SweepSpec, run_sweep, sweep_points
from repro.core import telemetry
from repro.core.provenance import ProvenanceLog
from repro.core.resilience import TaskFailure
from repro.gsf.framework import Gsf, GsfConfig
from repro.gsf.sizing import size_mixed_cluster
from repro.hardware.sku import (
    all_greenskus,
    baseline_gen3,
    greensku_full,
    paper_skus,
)

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny`` only
#: exercises the code paths (the self-test).  ``full`` keeps one timed
#: call near a second on a quiet host, so each input repeats several
#: times in a run.
SCALES = {
    "full": {
        "evaluate": {"vms": 1000, "days": 14.0, "pool": 4},
        "sweep": {"vms": 60, "days": 2.0, "warm_passes": 20, "pool": 2},
        "fleet": {"clusters": 8, "vms": 5000, "days": 3.0, "pool": 16},
    },
    "tiny": {
        "evaluate": {"vms": 60, "days": 1.0, "pool": 2},
        "sweep": {"vms": 20, "days": 0.5, "warm_passes": 2, "pool": 2},
        "fleet": {"clusters": 3, "vms": 60, "days": 0.5, "pool": 2},
    },
}

#: Timed repeats of every input in a run, at the least.
MIN_REPEATS = 2

#: Sweep grid: the 3 GreenSKUs x the 3 adoption rules x 2 buffer fractions.
SWEEP_SKUS = tuple(sku.name for sku in all_greenskus())
SWEEP_BUFFERS = (0.15, 0.25)

#: Fleet cluster sizing (as in ``benchmarks/bench_fleet.py``): ~5.23 peak
#: cores per mean-concurrent VM with 20% headroom, a third GreenSKUs.
CORES_PER_CONCURRENT = 5.23
HEADROOM = 1.20

#: Worker processes for sweep and fleet: two, or fewer on a smaller host.
JOBS = min(2, os.cpu_count() or 1)

#: Units of values that must repeat exactly across traced passes.
EXACT_UNITS = ("count", "bytes")


@dataclass
class Tally:
    """Operations attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            self.problems.append(what)


class TimedPolicy:
    """An adoption policy wrapper that counts and times every call."""

    def __init__(self, policy: Callable):
        self.policy = policy
        self.calls = 0
        self.seconds = 0.0

    def __call__(self, app_name: str, generation: int):
        start = time.perf_counter()
        result = self.policy(app_name, generation)
        self.seconds += time.perf_counter() - start
        self.calls += 1
        return result


class TimedCatalog(ResultsCatalog):
    """A results catalog that times reads and writes into telemetry."""

    def get(self, key):
        with telemetry.timer("bench.catalog_get"):
            return super().get(key)

    def put(self, key, inputs, payload):
        writes = self.writes
        with telemetry.timer("bench.catalog_put"):
            path = super().put(key, inputs, payload)
        if self.writes > writes:
            telemetry.count("bench.catalog_bytes", path.stat().st_size)
        return path


class TimedProvenanceLog(ProvenanceLog):
    """A provenance log that times every record into telemetry."""

    def record(self, artifact_id, kind, inputs, output_digest):
        with telemetry.timer("bench.provenance_record"):
            return super().record(artifact_id, kind, inputs, output_digest)


def timed_loop(
    seconds: float, minimum: int, op: Callable[[int], float]
) -> List[float]:
    """Call ``op(i)`` at least ``minimum`` times, then while time remains.

    Each call returns the seconds it measured.  A further call starts only
    if the mean call so far still fits in ``seconds``, so a run overshoots
    its budget by little.
    """
    measured: List[float] = []
    start = time.perf_counter()
    while len(measured) < minimum or (
        (time.perf_counter() - start) * (len(measured) + 1) / len(measured)
        <= seconds
    ):
        measured.append(op(len(measured)))
    return measured


def fastest_mean(durations: List[float], inputs: int) -> float:
    """Each input's fastest repeat, averaged over the inputs.

    ``durations[i]`` timed input ``i % inputs``.
    """
    return statistics.fmean(min(durations[k::inputs]) for k in range(inputs))


def rotated_pool(seed: int, pool: int) -> List[int]:
    """Trace seeds ``1..pool``, starting from ``1 + seed % pool``."""
    return [1 + (seed + k) % pool for k in range(pool)]


def _span_totals(tel: telemetry.Telemetry) -> Dict[str, float]:
    """Elapsed seconds per top-level span name."""
    totals: Dict[str, float] = {}
    for node in tel.manifest()["spans"]:
        name = node["name"]
        totals[name] = totals.get(name, 0.0) + node["elapsed_s"]
    return totals


def _timer_total(tel: telemetry.Telemetry, name: str) -> float:
    stat = tel.timers.get(name)
    return stat.total_s if stat is not None else 0.0


def alloc_layer(tel: telemetry.Telemetry) -> Dict[str, float]:
    """Trace, allocation and engine metrics from the program's counters."""
    counters = tel.counters
    replay_s = _timer_total(tel, "alloc.replay")
    placements = counters.get("alloc.placements", 0)
    return {
        "trace.generate_s": _timer_total(tel, "trace.generate"),
        "trace.vms": counters.get("trace.generated_vms", 0),
        "alloc.replay_s": replay_s,
        "alloc.replays": counters.get("alloc.replays", 0),
        "alloc.placements": placements,
        "alloc.departures": counters.get("alloc.departures", 0),
        "alloc.snapshots": counters.get("alloc.snapshots", 0),
        "alloc.event_chunks": counters.get("alloc.event_chunks", 0),
        "alloc.us_per_placement": (
            replay_s / placements * 1e6 if placements else 0.0
        ),
        "engine.queries": counters.get("engine.queries", 0),
    }


def sizing_layer(
    tel: telemetry.Telemetry, policies: List[TimedPolicy], wall_s: float
) -> Dict[str, float]:
    """Adoption, sizing and framework metrics of an in-process GSF run.

    Expects the ``bench.*`` spans that :func:`_gsf_steps` records; every
    replay of such a run happens inside the sizing span.
    """
    counters = tel.counters
    spans = _span_totals(tel)
    sizing_s = spans.get("bench.sizing", 0.0)
    simulated = counters.get("sizing.simulate_calls", 0)
    memo_hits = counters.get("sizing.memo_hits", 0)
    covered = sum(
        spans.get(name, 0.0)
        for name in (
            "bench.generate_trace",
            "bench.adoption_build",
            "bench.sizing",
            "bench.assemble",
        )
    )
    metrics = alloc_layer(tel)
    metrics.update(
        {
            "adoption.build_s": spans.get("bench.adoption_build", 0.0),
            "adoption.policy_calls": sum(p.calls for p in policies),
            "adoption.policy_s": sum(p.seconds for p in policies),
            "sizing.s": sizing_s,
            "sizing.self_s": sizing_s - metrics["alloc.replay_s"],
            "sizing.searches": counters.get("sizing.searches", 0),
            "sizing.simulate_calls": simulated,
            "sizing.memo_hits": memo_hits,
            "sizing.memo_hit_ratio": (
                memo_hits / (simulated + memo_hits)
                if simulated + memo_hits
                else 0.0
            ),
            "sizing.bracket_steps": counters.get("sizing.bracket_steps", 0),
            "sizing.bisect_steps": counters.get("sizing.bisect_steps", 0),
            "sizing.trim_steps": counters.get("sizing.trim_steps", 0),
            "gsf.assemble_s": spans.get("bench.assemble", 0.0),
            "tracing.span_coverage": covered / wall_s,
        }
    )
    return metrics


def runner_layer(
    tel: telemetry.Telemetry, map_wall_s: float, workers: int
) -> Dict[str, float]:
    """Executor metrics from the ``runner.*`` counters and timers."""
    stat = tel.timers.get("runner.task")
    task_s = stat.total_s if stat is not None else 0.0
    return {
        "runner.tasks": tel.counters.get("runner.tasks", 0),
        "runner.task_s": task_s,
        "runner.task_max_s": stat.max_s if stat is not None else 0.0,
        "runner.busy_ratio": task_s / (workers * map_wall_s),
    }


def _gsf_steps(
    tel: telemetry.Telemetry,
    trace_fn: Callable,
    gsf: Gsf,
    sku,
    policy_fn: Callable,
) -> tuple:
    """The calls ``Gsf.evaluate`` makes, each under a benchmark span.

    Returns ``(evaluation, timed_policy)``; the policy passes through a
    :class:`TimedPolicy` on its way into the sizing search.
    """
    with tel.span("bench.generate_trace"):
        trace = trace_fn()
    with tel.span("bench.adoption_build"):
        policy = TimedPolicy(policy_fn())
    with tel.span("bench.sizing"):
        sizing = size_mixed_cluster(trace, gsf.baseline, sku, policy)
    with tel.span("bench.assemble"):
        evaluation = gsf.evaluate(sku, trace, sizing=sizing)
    return evaluation, policy


def combine_passes(
    passes: List[Dict[str, float]], units: Dict[str, str], problems: List[str]
) -> Dict[str, float]:
    """Merge two traced passes: counts must repeat exactly, times average."""
    merged: Dict[str, float] = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        if units.get(name) in EXACT_UNITS:
            if len(set(values)) != 1:
                problems.append(f"{name} differs across passes: {values}")
            merged[name] = values[0]
        else:
            merged[name] = statistics.fmean(values)
    return merged


def alternate(
    untraced: Callable[[], float],
    traced: Callable[[], Dict[str, float]],
    units: Dict[str, str],
    problems: List[str],
) -> Dict[str, float]:
    """An untraced then a traced pass, twice, merged by :func:`combine_passes`.

    Each traced pass reports its own ``wall_s``, which becomes
    ``tracing.overhead`` against the untraced passes' seconds.
    """
    plain, passes = [], []
    for _ in range(2):
        plain.append(untraced())
        passes.append(traced())
    metrics = combine_passes(passes, units, problems)
    metrics["tracing.overhead"] = (
        metrics.pop("wall_s") / statistics.fmean(plain) - 1.0
    )
    return metrics


# -- evaluate ---------------------------------------------------------------


class Evaluate:
    """GreenSKU-Full vs Gen3 under the default GSF config, serially."""

    name = "evaluate"

    def __init__(self, scale: str, seed: int, goldens: dict, tmp: Path):
        knobs = SCALES[scale]["evaluate"]
        self.params = TraceParams(
            mean_concurrent_vms=knobs["vms"], duration_days=knobs["days"]
        )
        self.trace_seeds = rotated_pool(seed, knobs["pool"])
        self.golden = goldens.get("evaluate", {})
        self.envelope = {
            "vms": knobs["vms"],
            "days": knobs["days"],
            "traces_per_run": len(self.trace_seeds),
            "trace_seeds": self.trace_seeds,
            "greensku": "GreenSKU-Full",
            "adoption": "carbon-aware",
            "jobs": 1,
        }

    def golden_keys(self) -> List[str]:
        return [str(s) for s in self.trace_seeds]

    def display(self, values: Dict[str, float]) -> Dict[str, float]:
        return {"evaluate_s": values["wall_s"]} if "wall_s" in values else {}

    def _check(self, trace_seed: int, evaluation, tally: Tally) -> None:
        golden = self.golden[str(trace_seed)]
        payload = evaluation.to_payload()
        tally.check(
            payload_digest(payload) == golden["digest"]
            and payload["cluster_savings"] == golden["cluster_savings"],
            f"evaluate trace {trace_seed}: output differs from the golden",
        )

    def _evaluate(self, trace_seed: int):
        trace = generate_trace(trace_seed, self.params)
        return Gsf().evaluate(greensku_full(), trace)

    def evaluate_once(self, trace_seed: int, tally: Tally) -> float:
        """Time one evaluation, then check it; returns the seconds."""
        start = time.perf_counter()
        try:
            evaluation = self._evaluate(trace_seed)
        except Exception as exc:  # noqa: BLE001 -- counted as a failure
            tally.check(False, f"evaluate trace {trace_seed}: {exc!r}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        self._check(trace_seed, evaluation, tally)
        return elapsed

    def golden_entry(self) -> dict:
        """Expected outputs for the first trace of the run."""
        payload = self._evaluate(self.trace_seeds[0]).to_payload()
        return {
            "digest": payload_digest(payload),
            "cluster_savings": payload["cluster_savings"],
        }

    def timed(self, seconds: float, tally: Tally) -> Dict[str, float]:
        seeds = self.trace_seeds
        durations = timed_loop(
            seconds,
            MIN_REPEATS * len(seeds),
            lambda i: self.evaluate_once(seeds[i % len(seeds)], tally),
        )
        self.envelope["evaluation_s"] = [round(s, 4) for s in durations]
        return {"wall_s": fastest_mean(durations, len(seeds))}

    def _traced_once(self, trace_seed: int, tally: Tally) -> Dict[str, float]:
        with telemetry.capture() as tel:
            start = time.perf_counter()
            sku = greensku_full()
            gsf = Gsf()
            evaluation, policy = _gsf_steps(
                tel,
                lambda: generate_trace(trace_seed, self.params),
                gsf,
                sku,
                lambda: gsf.adoption_model(sku).policy(),
            )
            wall_s = time.perf_counter() - start
        self._check(trace_seed, evaluation, tally)
        metrics = sizing_layer(tel, [policy], wall_s)
        metrics["wall_s"] = wall_s
        return metrics

    def traced(self, tally: Tally, units: Dict[str, str]) -> Dict[str, float]:
        """One trace, untraced and traced in turn, twice."""
        trace_seed = self.trace_seeds[0]
        metrics = alternate(
            lambda: self.evaluate_once(trace_seed, tally),
            lambda: self._traced_once(trace_seed, tally),
            units,
            tally.problems,
        )
        if metrics["tracing.span_coverage"] < 0.95:
            tally.problems.append(
                f"spans cover {metrics['tracing.span_coverage']:.3f} of the "
                "traced evaluate wall time (< 0.95)"
            )
        return metrics


# -- sweep ------------------------------------------------------------------


class Sweep:
    """``run_sweep`` over 18 points: cold on a fresh store, then warm."""

    name = "sweep"

    def __init__(self, scale: str, seed: int, goldens: dict, tmp: Path):
        knobs = SCALES[scale]["sweep"]
        self.trace_seeds = rotated_pool(seed, knobs["pool"])
        self.specs = [
            SweepSpec(
                skus=SWEEP_SKUS,
                adoption_rules=ADOPTION_RULES,
                buffer_fractions=SWEEP_BUFFERS,
                seed=trace_seed,
                vms=knobs["vms"],
                days=knobs["days"],
            )
            for trace_seed in self.trace_seeds
        ]
        self.warm_passes = knobs["warm_passes"]
        self.jobs = JOBS
        self.tmp = tmp
        self._stores = itertools.count()
        self.golden = goldens.get("sweep", {})
        self.envelope = {
            "vms": knobs["vms"],
            "days": knobs["days"],
            "traces_per_run": len(self.trace_seeds),
            "trace_seeds": self.trace_seeds,
            "skus": list(SWEEP_SKUS),
            "adoption_rules": list(ADOPTION_RULES),
            "buffer_fractions": list(SWEEP_BUFFERS),
            "points": len(sweep_points(self.specs[0])),
            "warm_passes_per_cold": self.warm_passes,
            "jobs": self.jobs,
        }

    def golden_keys(self) -> List[str]:
        return [str(s) for s in self.trace_seeds]

    def display(self, values: Dict[str, float]) -> Dict[str, float]:
        if "wall_s" not in values:
            return {}
        return {
            "sweep_cold_s": values["wall_s"],
            "sweep_warm_s": self.envelope["sweep_warm_s"],
        }

    def _fresh_store(self, catalog_cls=ResultsCatalog, log_cls=ProvenanceLog):
        directory = self.tmp / f"sweep-{next(self._stores)}"
        return directory, catalog_cls(directory / "catalog"), log_cls(
            directory / "provenance.jsonl"
        )

    def _check(self, spec, outcome, tally: Tally, warm: bool) -> None:
        golden = self.golden[str(spec.seed)]
        summary_ok = payload_digest(outcome.summary) == golden["summary"]
        recomputed = set(outcome.recomputed)
        for point, payload in zip(outcome.points, outcome.payloads):
            ident = point.artifact_id
            ok = (
                summary_ok
                and isinstance(payload, dict)
                and payload_digest(payload) == golden["points"][ident]
                and (ident not in recomputed if warm else ident in recomputed)
            )
            tally.check(
                ok,
                f"sweep trace {spec.seed} {'warm' if warm else 'cold'} "
                f"point {ident} is wrong",
            )

    def _sweep(self, spec, catalog, log, tally: Tally, warm: bool) -> float:
        start = time.perf_counter()
        try:
            outcome = run_sweep(spec, catalog=catalog, log=log, jobs=self.jobs)
        except Exception as exc:  # noqa: BLE001 -- counted as a failure
            tally.check(
                False, f"sweep pass raised {exc!r}", len(sweep_points(spec))
            )
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        self._check(spec, outcome, tally, warm)
        return elapsed

    def cycle(self, spec, tally: Tally, warm: List[float]) -> float:
        """One cold pass on a fresh store, then the warm repeats on it.

        Returns the cold pass's seconds; appends the warm passes' to
        ``warm``.
        """
        directory, catalog, log = self._fresh_store()
        cold = self._sweep(spec, catalog, log, tally, warm=False)
        for _ in range(self.warm_passes):
            warm.append(self._sweep(spec, catalog, log, tally, warm=True))
        shutil.rmtree(directory, ignore_errors=True)
        return cold

    def golden_entry(self) -> dict:
        """Expected outputs for the first trace of the run."""
        directory, catalog, log = self._fresh_store()
        outcome = run_sweep(
            self.specs[0], catalog=catalog, log=log, jobs=self.jobs
        )
        shutil.rmtree(directory, ignore_errors=True)
        return {
            "summary": payload_digest(outcome.summary),
            "points": {
                point.artifact_id: payload_digest(payload)
                for point, payload in zip(outcome.points, outcome.payloads)
            },
        }

    def timed(self, seconds: float, tally: Tally) -> Dict[str, float]:
        specs = self.specs
        warm: List[float] = []
        cold = timed_loop(
            seconds,
            MIN_REPEATS * len(specs),
            lambda i: self.cycle(specs[i % len(specs)], tally, warm),
        )
        self.envelope["cold_pass_s"] = [round(s, 4) for s in cold]
        self.envelope["sweep_warm_s"] = statistics.median(warm)
        return {"wall_s": fastest_mean(cold, len(specs))}

    def _traced_store_pass(self, spec, tally: Tally) -> Dict[str, float]:
        """``run_sweep`` cold then warm on timing catalog/log subclasses."""
        directory, catalog, log = self._fresh_store(
            TimedCatalog, TimedProvenanceLog
        )
        with telemetry.capture() as tel:
            cold_s = self._sweep(spec, catalog, log, tally, warm=False)
            self._sweep(spec, catalog, log, tally, warm=True)
        shutil.rmtree(directory, ignore_errors=True)
        counters = tel.counters
        metrics = runner_layer(
            tel,
            _span_totals(tel).get("catalog.recompute", cold_s),
            min(self.jobs, len(sweep_points(spec))),
        )
        metrics.update(
            {
                "catalog.hits": counters.get("catalog.hits", 0),
                "catalog.misses": counters.get("catalog.misses", 0),
                "catalog.writes": counters.get("catalog.writes", 0),
                "catalog.bytes": counters.get("bench.catalog_bytes", 0),
                "catalog.get_s": _timer_total(tel, "bench.catalog_get"),
                "catalog.put_s": _timer_total(tel, "bench.catalog_put"),
                "provenance.record_s": _timer_total(
                    tel, "bench.provenance_record"
                ),
                "wall_s": cold_s,
            }
        )
        # Worker counters folded back by Telemetry.absorb, to compare with
        # the in-process replay of the same points.
        metrics["_worker_counts"] = alloc_layer(tel)
        return metrics

    def _replay(self, spec, tally: Tally) -> Dict[str, float]:
        """Each point in-process, through the calls ``run_sweep`` makes."""
        golden = self.golden[str(spec.seed)]
        skus = paper_skus()
        policies: List[TimedPolicy] = []
        perf_only_s = perf_only_policy_s = 0.0
        with telemetry.capture() as tel:
            start = time.perf_counter()
            for point in sweep_points(spec):
                point_start = time.perf_counter()
                gsf = Gsf(GsfConfig(buffer_fraction=point.buffer_fraction))
                sku = skus[point.sku]
                evaluation, policy = _gsf_steps(
                    tel,
                    lambda: generate_trace(
                        point.seed,
                        TraceParams(
                            mean_concurrent_vms=point.vms,
                            duration_days=point.days,
                        ),
                    ),
                    gsf,
                    sku,
                    lambda: adoption_policy(point.rule, gsf, sku),
                )
                policies.append(policy)
                payload = evaluation.to_payload()
                payload["point"] = {
                    "sku": point.sku,
                    "rule": point.rule,
                    "buffer_fraction": point.buffer_fraction,
                    "cxl_dimms": point.cxl_dimms,
                    "backend": point.backend,
                    "grid_signal": point.grid_signal,
                    "placement_policy": point.placement_policy,
                }
                ident = point.artifact_id
                tally.check(
                    payload_digest(payload) == golden["points"][ident],
                    f"sweep replay point {ident} is wrong",
                )
                if point.rule == "performance-only":
                    perf_only_s += time.perf_counter() - point_start
                    perf_only_policy_s += policy.seconds
            wall_s = time.perf_counter() - start
        metrics = sizing_layer(tel, policies, wall_s)
        metrics["adoption.perf_only_policy_share"] = (
            perf_only_policy_s / perf_only_s if perf_only_s else 0.0
        )
        return metrics

    def traced(self, tally: Tally, units: Dict[str, str]) -> Dict[str, float]:
        """The run's first trace: untraced cycle, traced store pass and
        in-process replay, twice."""
        spec = self.specs[0]
        warm: List[float] = []

        def traced_pass() -> Dict[str, float]:
            metrics = self._traced_store_pass(spec, tally)
            worker_counts = metrics.pop("_worker_counts")
            metrics.update(self._replay(spec, tally))
            for name, value in worker_counts.items():
                if units.get(name) in EXACT_UNITS and metrics[name] != value:
                    tally.problems.append(
                        f"{name}: run_sweep workers counted {value}, the "
                        f"in-process replay {metrics[name]}"
                    )
            return metrics

        metrics = alternate(
            lambda: self.cycle(spec, tally, warm),
            traced_pass,
            units,
            tally.problems,
        )
        metrics["sweep_warm_s"] = statistics.median(warm)
        return metrics


# -- fleet ------------------------------------------------------------------


def sized_cluster(mean_concurrent: int) -> ClusterSpec:
    """A Gen3 + GreenSKU-Full cluster sized for ``mean_concurrent`` VMs."""
    gen3 = baseline_gen3()
    total = max(
        int(mean_concurrent * CORES_PER_CONCURRENT / gen3.cores * HEADROOM), 4
    )
    green = total // 3
    return ClusterSpec.of((gen3, total - green), (greensku_full(), green))


class Fleet:
    """``simulate_fleet`` over mixed clusters with ±10% size jitter."""

    name = "fleet"

    def __init__(self, scale: str, seed: int, goldens: dict, tmp: Path):
        knobs = SCALES[scale]["fleet"]
        self.fleet_seed = 1 + seed % knobs["pool"]
        tasks = []
        for i in range(knobs["clusters"]):
            # Deterministic ±10% jitter so the clusters differ in size.
            concurrent = int(knobs["vms"] * (0.9 + 0.2 * (i % 5) / 4.0))
            tasks.append(
                ClusterTask(
                    name=f"cluster-{i:03d}",
                    seed=1000 * self.fleet_seed + i,
                    params=TraceParams(
                        duration_days=knobs["days"],
                        mean_concurrent_vms=concurrent,
                    ),
                    cluster=sized_cluster(concurrent),
                )
            )
        self.spec = FleetSpec(clusters=tuple(tasks))
        self.jobs = JOBS
        self.golden = goldens.get("fleet", {}).get(str(self.fleet_seed))
        self.envelope = {
            "clusters": knobs["clusters"],
            "vms_per_cluster": knobs["vms"],
            "days": knobs["days"],
            "cluster_seed_base": 1000 * self.fleet_seed,
            "servers": self.spec.total_servers,
            "adoption": "adopt_everything",
            "jobs": self.jobs,
        }

    def golden_keys(self) -> List[str]:
        return [str(self.fleet_seed)]

    def display(self, values: Dict[str, float]) -> Dict[str, float]:
        return {"fleet_s": values["wall_s"]} if "wall_s" in values else {}

    def simulate(self, tally: Tally) -> float:
        """Time one ``simulate_fleet``, then check it; returns the seconds."""
        start = time.perf_counter()
        try:
            outcome = simulate_fleet(
                self.spec, adopt_everything, jobs=self.jobs
            )
            elapsed = time.perf_counter() - start
            outcome.reconcile()
        except Exception as exc:  # noqa: BLE001 -- counted as a failure
            tally.check(
                False, f"fleet raised {exc!r}", self.spec.total_clusters
            )
            return time.perf_counter() - start
        fleet_ok = outcome.digest() == self.golden["fleet"]
        for (name, digest), result in zip(
            outcome.cluster_digests(), outcome.outcomes
        ):
            tally.check(
                fleet_ok
                and not isinstance(result, TaskFailure)
                and digest == self.golden["clusters"][name],
                f"fleet cluster {name} is wrong",
            )
        return elapsed

    def golden_entry(self) -> dict:
        outcome = simulate_fleet(self.spec, adopt_everything, jobs=self.jobs)
        outcome.reconcile()
        return {
            "fleet": outcome.digest(),
            "clusters": dict(outcome.cluster_digests()),
            "placed_vms": outcome.placed_vms,
        }

    def timed(self, seconds: float, tally: Tally) -> Dict[str, float]:
        durations = timed_loop(
            seconds, MIN_REPEATS, lambda i: self.simulate(tally)
        )
        self.envelope["fleet_call_s"] = [round(s, 4) for s in durations]
        return {"wall_s": min(durations)}

    def _traced_once(self, tally: Tally) -> Dict[str, float]:
        with telemetry.capture() as tel:
            wall_s = self.simulate(tally)
        map_s = _timer_total(tel, "fleet.simulate")
        metrics = alloc_layer(tel)
        metrics.update(
            runner_layer(tel, map_s, min(self.jobs, self.spec.total_clusters))
        )
        metrics.update(
            {
                "fleet.map_s": map_s,
                "fleet.merge_s": wall_s - map_s,
                "fleet.placed_vms": tel.counters.get("fleet.placed_vms", 0),
                "tracing.span_coverage": map_s / wall_s,
                "wall_s": wall_s,
            }
        )
        return metrics

    def traced(self, tally: Tally, units: Dict[str, str]) -> Dict[str, float]:
        """The fleet, untraced and traced in turn, twice."""
        return alternate(
            lambda: self.simulate(tally),
            lambda: self._traced_once(tally),
            units,
            tally.problems,
        )


WORKLOADS = {cls.name: cls for cls in (Evaluate, Sweep, Fleet)}

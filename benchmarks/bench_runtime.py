"""Benchmark: Section VIII runtime systems (autoscaling, DVFS, Pond),
plus the allocation and trace-generation speedup and equivalence suite.

The allocation benchmarks compare the production replay (the indexed
placement engine on the streaming loop) against the reference scan and
row loop of ``tests/oracles/allocation.py``:

- ``test_alloc_engine_golden_digest`` always runs (the CI smoke): it
  replays fixed scenarios on the production path and fails on any
  ``SimOutcome`` digest mismatch against ``benchmarks/golden_digests.json``
  (generated from the oracle; refresh with ``REPRO_UPDATE_GOLDEN=1``).
- The speedup measurements re-run the same workloads on the oracle,
  sizing with the probing search of ``tests/oracles/sizing.py`` in place
  of the one-replay sizing; that takes minutes at the 1k-server scale,
  so they only run when ``REPRO_BENCH_REFERENCE=1``.

The trace benchmarks compare the block-drawing generator against the
scalar loop of ``tests/oracles/traces.py`` the same way.
"""

import contextlib
import json
import os
import pathlib
import statistics
import time

import pytest

from repro.allocation.cluster import (
    ClusterSpec,
    adopt_nothing,
    outcome_digest,
    simulate,
)
from repro.allocation.scheduler import PLACEMENT_POLICIES
from repro.allocation.traces import (
    TraceParams,
    generate_trace,
    production_trace_suite,
)
from repro.core import telemetry
from repro.core.tables import render_table
from repro.experiments import fig9_packing
from repro.gsf.framework import Gsf
from repro.gsf.sizing import right_size
from repro.hardware.sku import (
    baseline_gen1,
    baseline_gen2,
    baseline_gen3,
    greensku_full,
)
from repro.perf.apps import APPLICATIONS, get_app
from repro.perf.autoscale import autoscale
from repro.perf.dvfs import frequency_sweep
from repro.perf.pond import mitigated_share

from repro.allocation.store import TraceStore
from repro.experiments import fig10_memutil

from conftest import oracle, run_once

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_digests.json"
GOLDEN_TRACE_PATH = (
    pathlib.Path(__file__).parent / "golden_trace_digests.json"
)

#: ~1k baseline servers once right-sized (the ISSUE's target scale).
ENGINE_TRACE_PARAMS = TraceParams(duration_days=3, mean_concurrent_vms=16000)


def _reference_timing_enabled() -> bool:
    return os.environ.get("REPRO_BENCH_REFERENCE", "0") not in (
        "", "0", "false", "no",
    )


def _adopt_all(app_name, generation):
    return 1.0


def _golden_scenarios():
    """Small fixed replays covering policies and mixed clusters.

    Besides single-generation baselines and a mixed cluster at factor
    1.0, a Gen1/Gen2/Gen3 baseline cluster routes VMs through the
    per-generation views (two views per baseline server), and a
    GreenSKU-Full cluster under its adoption model places scaled
    adopters, with fungible fallback to the baselines.
    """
    base, green = baseline_gen3(), greensku_full()
    generations = ClusterSpec.of(
        (baseline_gen1(), 6), (baseline_gen2(), 8), (base, 12)
    )
    full = ClusterSpec.of((base, 16), (green, 4))
    full_adoption = Gsf().adoption_model(green).policy()
    scenarios = []
    for seed in (3, 5):
        trace = generate_trace(
            seed=seed,
            params=TraceParams(duration_days=3, mean_concurrent_vms=120),
        )
        for policy in PLACEMENT_POLICIES:
            scenarios.append(
                (
                    f"seed{seed}-baseline-{policy}",
                    trace,
                    ClusterSpec.of((base, 24)),
                    adopt_nothing,
                    policy,
                )
            )
        scenarios.append(
            (
                f"seed{seed}-mixed-best-fit",
                trace,
                ClusterSpec.of((base, 14), (green, 10)),
                _adopt_all,
                "best-fit",
            )
        )
        for policy in PLACEMENT_POLICIES:
            scenarios.append(
                (
                    f"seed{seed}-generations-{policy}",
                    trace,
                    generations,
                    adopt_nothing,
                    policy,
                )
            )
        for policy in PLACEMENT_POLICIES:
            scenarios.append(
                (
                    f"seed{seed}-greensku-full-{policy}",
                    trace,
                    full,
                    full_adoption,
                    policy,
                )
            )
    return scenarios


def test_alloc_engine_golden_digest(save):
    """Production ``SimOutcome`` digests match the oracle goldens."""
    digests = {}
    for name, trace, cluster, adoption, policy in _golden_scenarios():
        outcome = simulate(
            trace,
            cluster,
            adoption=adoption,
            policy=policy,
        )
        digests[name] = outcome_digest(outcome)
    if os.environ.get("REPRO_UPDATE_GOLDEN", "0") not in ("", "0"):
        # Regenerate from the reference oracle.
        reference = {
            name: outcome_digest(
                oracle("allocation").simulate(
                    trace,
                    cluster,
                    adoption=adoption,
                    policy=policy,
                )
            )
            for name, trace, cluster, adoption, policy in _golden_scenarios()
        }
        GOLDEN_PATH.write_text(json.dumps(reference, indent=2) + "\n")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert digests == golden, (
        "production SimOutcome digests diverged from the oracle goldens"
    )
    save(
        "alloc_engine_digests.txt",
        "\n".join(f"{name}: {digest}" for name, digest in sorted(digests.items())),
    )


def _golden_trace_specs():
    """Fixed (name, seed, params) trace identities pinned in CI.

    Covers the golden-digest replay traces plus the jittered suite path
    (distinct per-trace params through ``suite_specs``).
    """
    from repro.allocation.traces import suite_specs

    base = TraceParams(duration_days=3, mean_concurrent_vms=120)
    specs = [("seed3", 3, base), ("seed5", 5, base)]
    for seed, params, name in suite_specs(count=4, params=base):
        specs.append((name, seed, params))
    return specs


def test_trace_golden_digest(save):
    """Generated trace digests match the oracle-generated goldens.

    The digests in ``golden_trace_digests.json`` were produced by the
    scalar oracle generator; refresh with ``REPRO_UPDATE_GOLDEN=1``.
    Any divergence means the block-drawing generator changed the VM
    stream — exactly the regression the equivalence contract forbids.
    """
    digests = {
        name: generate_trace(seed, params).digest()
        for name, seed, params in _golden_trace_specs()
    }
    if os.environ.get("REPRO_UPDATE_GOLDEN", "0") not in ("", "0"):
        reference = {
            name: oracle("traces").generate_trace(seed, params).digest()
            for name, seed, params in _golden_trace_specs()
        }
        GOLDEN_TRACE_PATH.write_text(json.dumps(reference, indent=2) + "\n")
    golden = json.loads(GOLDEN_TRACE_PATH.read_text())
    assert digests == golden, (
        "generated trace digests diverged from the oracle-generated goldens"
    )
    save(
        "trace_pipeline_digests.txt",
        "\n".join(f"{name}: {digest}" for name, digest in sorted(
            digests.items()
        )),
    )


def test_trace_generation_speedup(save):
    """Block-drawn suite generation beats the scalar oracle loop >= 5x.

    Measures the full 35-trace production suite (the input of every
    figure) under both generators.  The committed artifact records the
    measured ratio; the in-test floor is softer (3x) to tolerate noisy
    shared CI runners.
    """
    count = 35
    t0 = time.perf_counter()
    reference = oracle("traces").production_trace_suite(count=count)
    reference_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    vectorized = production_trace_suite(count=count)
    vectorized_s = time.perf_counter() - t0

    total_vms = sum(t.vm_count for t in vectorized)
    assert [t.digest() for t in vectorized] == [
        t.digest() for t in reference
    ]
    speedup = reference_s / vectorized_s
    save(
        "trace_pipeline_generation.txt",
        f"production_trace_suite({count}) generation, {total_vms} VMs "
        f"total\n"
        f"  scalar reference loop: {reference_s:.2f}s "
        f"({reference_s / total_vms * 1e6:.1f}us/VM)\n"
        f"  vectorized (block draws): {vectorized_s:.2f}s "
        f"({vectorized_s / total_vms * 1e6:.1f}us/VM)\n"
        f"  speedup: {speedup:.1f}x (target >= 5x)\n"
        f"  digests: bit-identical across all {count} traces",
        smoke=True,
    )
    assert speedup >= 3.0, f"suite generation speedup {speedup:.1f}x < 3x"


def test_trace_store_round_trip(save, tmp_path):
    """Store loads are much cheaper than regeneration and digest-equal."""
    count = 8
    store = TraceStore(directory=tmp_path / "traces")
    t0 = time.perf_counter()
    generated = production_trace_suite(count=count, store=store)
    generate_s = time.perf_counter() - t0
    assert (store.hits, store.misses) == (0, count)

    t0 = time.perf_counter()
    loaded = production_trace_suite(count=count, store=store)
    load_s = time.perf_counter() - t0
    assert (store.hits, store.misses) == (count, count)
    assert [t.digest() for t in loaded] == [t.digest() for t in generated]

    speedup = generate_s / load_s
    save(
        "trace_pipeline_store.txt",
        f"trace store ({count}-trace suite, "
        f"{sum(t.vm_count for t in loaded)} VMs)\n"
        f"  generate (cold, vectorized): {generate_s * 1000:.0f}ms\n"
        f"  load from .npz store (warm): {load_s * 1000:.0f}ms\n"
        f"  speedup: {speedup:.1f}x; round trip digest-equal",
        smoke=True,
    )
    assert speedup >= 1.0


def test_trace_pipeline_end_to_end(save):
    """Serial Fig. 9 + Fig. 10 wall-clock, scalar vs columnar pipeline.

    Both runs use the production replay; only the trace generator
    differs (the scalar oracle's row-built traces vs columnar ones), so
    the delta is the generation + trace-plumbing share of the end-to-end
    pipelines.  Outcomes must be bit-identical.
    """
    if not _reference_timing_enabled():
        pytest.skip("set REPRO_BENCH_REFERENCE=1 to time the end-to-end runs")

    def pipeline(suite):
        traces = suite(count=8, params=TraceParams(mean_concurrent_vms=250))
        fig9 = fig9_packing.run(traces=traces, jobs=1)
        fig10 = fig10_memutil.run(traces=traces, jobs=1)
        return fig9, fig10

    t0 = time.perf_counter()
    ref9, ref10 = pipeline(oracle("traces").production_trace_suite)
    reference_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    vec9, vec10 = pipeline(production_trace_suite)
    vectorized_s = time.perf_counter() - t0

    assert vec9 == ref9
    assert vec10 == ref10
    save(
        "trace_pipeline_fig9_fig10.txt",
        f"serial Fig. 9 + Fig. 10 pipeline (8 traces, 250 mean-concurrent "
        f"VMs, jobs=1, no cache)\n"
        f"  scalar trace pipeline:   {reference_s:.2f}s\n"
        f"  columnar trace pipeline: {vectorized_s:.2f}s\n"
        f"  speedup: {reference_s / vectorized_s:.2f}x end to end; "
        f"Fig. 9/10 results bit-identical",
    )


def test_telemetry_overhead_and_manifest(save):
    """Telemetry stays within its budget on the golden-digest scenarios.

    Each of seven rounds replays every golden scenario twice, back to
    back, once with telemetry off and once on, alternating which side
    goes first.  Host drift therefore lands on both sides alike instead
    of reading as overhead.  Each side's time is the sum over scenarios
    of the scenario's median over the rounds.  Fails if the instrumented
    side is more than 5% slower (``REPRO_TELEMETRY_OVERHEAD`` overrides
    the budget), and validates the capture against the manifest schema.
    """
    budget = float(os.environ.get("REPRO_TELEMETRY_OVERHEAD", "0.05"))
    rounds = 7
    scenarios = _golden_scenarios()

    def replay(scenario):
        _name, trace, cluster, adoption, policy = scenario
        simulate(
            trace,
            cluster,
            adoption=adoption,
            policy=policy,
        )

    for scenario in scenarios:  # warm caches before either timing
        replay(scenario)
    tel = telemetry.Telemetry()  # every telemetry-on replay, folded in
    seconds = {side: [[] for _ in scenarios] for side in (False, True)}
    for i in range(rounds):
        for j, scenario in enumerate(scenarios):
            first_on = (i + j) % 2 == 1
            for instrumented in (first_on, not first_on):
                sink = (
                    telemetry.capture()
                    if instrumented
                    else contextlib.nullcontext()
                )
                with sink as replay_tel:
                    t0 = time.perf_counter()
                    replay(scenario)
                    seconds[instrumented][j].append(time.perf_counter() - t0)
                if instrumented:
                    tel.absorb(*replay_tel.drain())
    plain_s, instrumented_s = (
        sum(statistics.median(times) for times in seconds[side])
        for side in (False, True)
    )

    manifest = tel.manifest(command="bench-telemetry-overhead")
    problems = telemetry.validate_manifest(manifest)
    assert not problems, problems
    assert manifest["counters"]["alloc.replays"] == rounds * len(scenarios)
    assert manifest["timers"]["alloc.replay"].get("count") == rounds * len(
        scenarios
    )

    overhead = instrumented_s / plain_s - 1.0
    save(
        "telemetry_overhead.txt",
        f"golden-scenario batch ({len(scenarios)} replays; {rounds} "
        f"rounds, off/on interleaved per replay; per-replay medians)\n"
        f"  telemetry off: {plain_s * 1000:.1f}ms\n"
        f"  telemetry on:  {instrumented_s * 1000:.1f}ms\n"
        f"  overhead: {overhead:+.1%} (budget {budget:.0%})",
        smoke=True,
    )
    assert overhead <= budget, (
        f"telemetry overhead {overhead:.1%} exceeds the {budget:.0%} budget"
    )


def test_right_size_indexed_speedup(benchmark, save):
    """``right_size`` sizes a 1k-server trace >= 5x faster than the
    oracle search on the reference scan."""
    if not _reference_timing_enabled():
        pytest.skip("set REPRO_BENCH_REFERENCE=1 to time the reference scan")
    sizing_oracle = oracle("sizing")
    trace = generate_trace(seed=7, params=ENGINE_TRACE_PARAMS)
    sku = baseline_gen3()

    t0 = time.perf_counter()
    n_indexed = run_once(benchmark, lambda: right_size(trace, sku))
    indexed_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    n_reference = sizing_oracle.right_size(trace, sku)
    reference_s = time.perf_counter() - t0

    assert n_indexed == n_reference
    speedup = reference_s / indexed_s
    save(
        "alloc_engine_rightsize.txt",
        f"right_size, {len(trace.vms)} VMs -> {n_indexed} baseline servers\n"
        f"  oracle search, reference scan: {reference_s:.2f}s\n"
        f"  one replay, production engine: {indexed_s:.2f}s\n"
        f"  speedup: {speedup:.1f}x (target >= 5x)",
    )
    assert speedup >= 5.0


def test_fig9_serial_speedup(save, monkeypatch):
    """The serial Fig. 9 pipeline runs >= 2x faster than on the oracle's
    reference scan with the oracle sizing search.

    Trace generation happens outside the timed region (it is
    engine-independent), and the suite runs at a cluster scale where the
    allocation hot path dominates (~300 servers per cluster).  At the
    figure's default 250 mean-concurrent VMs the clusters are ~30
    servers and the scan is not the bottleneck.
    """
    if not _reference_timing_enabled():
        pytest.skip("set REPRO_BENCH_REFERENCE=1 to time the reference scan")
    traces = production_trace_suite(
        count=6, params=TraceParams(mean_concurrent_vms=2500)
    )

    t0 = time.perf_counter()
    indexed_result = fig9_packing.run(traces=traces, jobs=1)
    indexed_s = time.perf_counter() - t0
    monkeypatch.setattr(
        fig9_packing, "size_mixed_cluster",
        oracle("sizing").size_mixed_cluster,
    )
    monkeypatch.setattr(
        fig9_packing, "simulate", oracle("allocation").simulate
    )
    t0 = time.perf_counter()
    reference_result = fig9_packing.run(traces=traces, jobs=1)
    reference_s = time.perf_counter() - t0

    assert indexed_result == reference_result
    speedup = reference_s / indexed_s
    save(
        "alloc_engine_fig9.txt",
        f"Fig. 9 serial pipeline (6 traces, 2500 mean-concurrent VMs, "
        f"jobs=1, no cache)\n"
        f"  oracle sizing search, reference scan: {reference_s:.2f}s\n"
        f"  one-replay sizing, production engine: {indexed_s:.2f}s\n"
        f"  speedup: {speedup:.1f}x (target >= 2x)",
    )
    assert speedup >= 2.0


def test_autoscaler(benchmark, save):
    result = run_once(benchmark, lambda: autoscale(get_app("Xapian")))
    save(
        "runtime_autoscale.txt",
        f"Autoscaling Xapian over 48h diurnal load: "
        f"{result.core_hour_savings:.0%} core-hours returned, "
        f"{result.slo_violation_hours} SLO-violation hours",
    )
    assert result.core_hour_savings > 0.1
    assert result.slo_violation_hours <= 2


def test_dvfs(benchmark, save):
    plans = run_once(
        benchmark, lambda: frequency_sweep(get_app("Nginx"), cores=10)
    )
    table = render_table(
        ["load QPS", "frequency", "power saving", "meets SLO"],
        [
            [f"{p.load_qps:.0f}", f"{p.frequency:.2f}",
             f"{p.power_savings:.0%}", p.meets_slo]
            for p in plans
        ],
        title="DVFS plans across load (Nginx, 10 cores)",
    )
    save("runtime_dvfs.txt", table)
    assert all(p.meets_slo for p in plans)
    assert plans[0].power_savings > plans[-1].power_savings


def test_pond_mitigation(benchmark, save):
    share = run_once(benchmark, lambda: mitigated_share(APPLICATIONS))
    save(
        "runtime_pond.txt",
        f"Pond tiering: {share:.0%} of applications within the 5% CXL "
        "slowdown bound (paper: 98%)",
    )
    assert share >= 0.95

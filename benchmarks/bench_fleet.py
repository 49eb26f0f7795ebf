"""Benchmark: fleet-scale allocation replay (streaming path vs oracle).

Two gates mirror the queueing bench:

- ``test_fleet_golden_digest`` always runs (the CI smoke): it replays a
  small fixed fleet through the production streaming replay and fails
  on any fleet/per-cluster digest mismatch against
  ``benchmarks/golden_fleet_digests.json`` (generated from the
  reference scan and row loop of ``tests/oracles/allocation.py``;
  refresh with ``REPRO_UPDATE_GOLDEN=1``).
- ``test_fleet_scale_speedup`` replays the full fleet — by default 100
  clusters totalling >= 10^6 VMs — on the streaming path, then walks a
  *scale trajectory* of single-cluster samples (by default 1/4x, 1/2x,
  1x, and 1.6x of the speedup scale — the largest ~3100 servers),
  timing each on both the row-loop oracle and the streaming path,
  asserting bit-identical ``outcome_digest``s at every scale, and writes
  the machine-readable ``benchmarks/out/BENCH_fleet.json`` artifact
  (``benchmarks/out/smoke/`` below full scale) —
  including the per-scale ``scale_trajectory`` — (schema checked by
  :func:`validate_bench_fleet`, peak RSS included, full-fleet
  ``VmRequest`` rows never materialized).

Scale knobs (CI smoke sets small values; ``--smoke`` does it for you):

- ``REPRO_BENCH_FLEET_CLUSTERS``: fleet size (default 100).
- ``REPRO_BENCH_FLEET_VMS``: mean concurrent VMs per cluster (default
  5200, about 11k VM arrivals per 3-day trace).
- ``REPRO_BENCH_FLEET_SPEEDUP_VMS``: mean concurrent VMs of the
  largest speedup-sample cluster (default 25000 — ~1900 servers, the
  scale where the indexed engine's advantage over the oracle's
  per-query scan is architectural rather than incidental; the
  trajectory extends 1.6x beyond it).
- ``REPRO_BENCH_FLEET_TRAJECTORY``: explicit comma-separated
  concurrent-VM scales for the trajectory (overrides the derived
  1/4x,1/2x,1x,1.6x ladder).

The >= 3x in-test floor (real runs clear 5x; see BENCH_fleet.json)
only applies at full scale — tiny smoke clusters are numpy-overhead
bound and measure nothing.
"""

import json
import os
import pathlib
import resource
import sys
import time

from repro.allocation.cluster import (
    ClusterSpec,
    adopt_everything,
    outcome_digest,
    simulate,
)
from repro.allocation.fleet import (
    ClusterTask,
    FleetOutcome,
    FleetSpec,
    simulate_fleet,
)
from repro.allocation.traces import TraceParams, generate_trace

from conftest import oracle

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_fleet_digests.json"

BENCH_SCHEMA = "repro-bench-fleet/2"

#: Server-per-concurrent-VM sizing: measured ~5.23 peak cores per unit
#: of ``mean_concurrent_vms`` under the default trace shape, with 20%
#: headroom so the fleet replays without (many) rejections.
_CORES_PER_CONCURRENT = 5.23
_HEADROOM = 1.20

DEFAULT_CLUSTERS = 100
DEFAULT_CONCURRENT = 5200
DEFAULT_SPEEDUP_CONCURRENT = 25000

GOLDEN_CLUSTERS = 4
GOLDEN_CONCURRENT = 150


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, str(default)))


def _trajectory_scales(speedup_concurrent: int) -> list:
    """The concurrent-VM ladder the speedup trajectory samples.

    Derived from the speedup scale (1/4x, 1/2x, 1x, 1.6x) so smoke runs
    shrink with it; ``REPRO_BENCH_FLEET_TRAJECTORY`` pins it exactly.
    """
    env = os.environ.get("REPRO_BENCH_FLEET_TRAJECTORY")
    if env:
        scales = [int(part) for part in env.split(",") if part.strip()]
    else:
        scales = [
            max(speedup_concurrent // 4, 100),
            max(speedup_concurrent // 2, 100),
            speedup_concurrent,
            speedup_concurrent * 8 // 5,
        ]
    return sorted(set(scales))


def _sample_point(mean_concurrent: int) -> dict:
    """Time one cluster at ``mean_concurrent`` on both replay paths."""
    params = TraceParams(
        duration_days=3.0, mean_concurrent_vms=mean_concurrent
    )
    cluster = _sized_cluster(mean_concurrent)
    streaming_trace = generate_trace(11, params, name="speedup-sample")
    t0 = time.perf_counter()
    streaming = simulate(streaming_trace, cluster, adopt_everything)
    streaming_s = time.perf_counter() - t0
    row_trace = generate_trace(11, params, name="speedup-sample")
    t0 = time.perf_counter()
    row = oracle("allocation").simulate(row_trace, cluster, adopt_everything)
    row_s = time.perf_counter() - t0
    return {
        "vms_concurrent": mean_concurrent,
        "vms": int(streaming_trace.columns.n),
        "servers": cluster.total_servers,
        "row_reference_s": round(row_s, 3),
        "streaming_s": round(streaming_s, 3),
        "speedup": round(row_s / streaming_s, 2),
        "bit_identical": outcome_digest(streaming) == outcome_digest(row),
    }


def _sized_cluster(mean_concurrent: int):
    """A mixed baseline+GreenSKU cluster sized for ``mean_concurrent``."""
    from repro.hardware.sku import baseline_gen3, greensku_full

    g3 = baseline_gen3()
    total = max(
        int(mean_concurrent * _CORES_PER_CONCURRENT / g3.cores * _HEADROOM),
        4,
    )
    green = total // 3
    return ClusterSpec.of((g3, total - green), (greensku_full(), green))


def _fleet_spec(clusters: int, mean_concurrent: int) -> FleetSpec:
    """A deterministic heterogeneous fleet: per-cluster jittered sizes."""
    tasks = []
    for i in range(clusters):
        # +-10% deterministic jitter so clusters differ without RNG.
        conc = int(mean_concurrent * (0.9 + 0.2 * (i % 5) / 4.0))
        tasks.append(
            ClusterTask(
                name=f"cluster-{i:03d}",
                seed=1000 + i,
                params=TraceParams(
                    duration_days=3.0, mean_concurrent_vms=conc
                ),
                cluster=_sized_cluster(conc),
            )
        )
    return FleetSpec(clusters=tuple(tasks))


def test_fleet_golden_digest(save):
    """Streaming fleet digests match the oracle goldens."""
    spec = _fleet_spec(GOLDEN_CLUSTERS, GOLDEN_CONCURRENT)
    outcome = simulate_fleet(spec, adopt_everything)
    digests = {
        "fleet": outcome.digest(),
        "clusters": {
            name: digest for name, digest in outcome.cluster_digests()
        },
    }
    if os.environ.get("REPRO_UPDATE_GOLDEN", "0") not in ("", "0"):
        reference = FleetOutcome(
            spec=spec,
            outcomes=[
                oracle("allocation").simulate(
                    generate_trace(task.seed, task.params, name=task.name),
                    task.cluster,
                    adopt_everything,
                )
                for task in spec.clusters
            ],
        )
        GOLDEN_PATH.write_text(
            json.dumps(
                {
                    "fleet": reference.digest(),
                    "clusters": {
                        name: digest
                        for name, digest in reference.cluster_digests()
                    },
                },
                indent=2,
            )
            + "\n"
        )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert digests == golden, (
        "streaming fleet digests diverged from the oracle goldens"
    )
    save(
        "fleet_digests.txt",
        "\n".join(
            [f"fleet: {digests['fleet']}"]
            + [
                f"{name}: {digest}"
                for name, digest in sorted(digests["clusters"].items())
            ]
        ),
    )


def test_fleet_scale_speedup(save):
    """Full-fleet streaming replay + row-vs-streaming speedup sample."""
    clusters = _env_int("REPRO_BENCH_FLEET_CLUSTERS", DEFAULT_CLUSTERS)
    concurrent = _env_int("REPRO_BENCH_FLEET_VMS", DEFAULT_CONCURRENT)
    speedup_concurrent = _env_int(
        "REPRO_BENCH_FLEET_SPEEDUP_VMS", DEFAULT_SPEEDUP_CONCURRENT
    )
    full_scale = (
        clusters >= DEFAULT_CLUSTERS
        and concurrent >= DEFAULT_CONCURRENT
        and speedup_concurrent >= 20000
    )

    # -- the fleet itself: streaming only, rows never materialized.
    spec = _fleet_spec(clusters, concurrent)
    t0 = time.perf_counter()
    outcome = simulate_fleet(spec, adopt_everything)
    fleet_s = time.perf_counter() - t0
    total_vms = outcome.placed_vms + outcome.rejected_vms
    if full_scale:
        assert clusters == 100 and total_vms >= 1_000_000, (
            clusters,
            total_vms,
        )

    # -- rows-never-materialized: the streaming path must leave the
    #    trace's lazy row view unbuilt (the property the memory model
    #    rests on; fleet workers replay exactly this code path).
    probe_task = spec.clusters[0]
    probe_trace = generate_trace(
        probe_task.seed, probe_task.params, name=probe_task.name
    )
    assert probe_trace._rows is None
    simulate(probe_trace, probe_task.cluster, adopt_everything)
    rows_materialized = probe_trace._rows is not None
    assert not rows_materialized, (
        "streaming replay materialized VmRequest rows"
    )

    # -- speedup trajectory: oracle vs streaming at increasing cluster
    #    scales, bit-identical at every rung; the largest rung is the
    #    headline speedup sample.
    trajectory = [
        _sample_point(scale)
        for scale in _trajectory_scales(speedup_concurrent)
    ]
    sample = trajectory[-1]
    bit_identical = all(point["bit_identical"] for point in trajectory)
    speedup = sample["speedup"]

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    payload = {
        "schema": BENCH_SCHEMA,
        "clusters": clusters,
        "total_vms": total_vms,
        "total_servers": spec.total_servers,
        "fleet_s": round(fleet_s, 2),
        "fleet_digest": outcome.digest(),
        "full_scale": full_scale,
        "rows_materialized": rows_materialized,
        "peak_rss_mb": round(peak_rss_mb, 1),
        "speedup_sample": {
            key: sample[key]
            for key in (
                "vms",
                "servers",
                "row_reference_s",
                "streaming_s",
                "speedup",
                "bit_identical",
            )
        },
        "scale_trajectory": trajectory,
    }
    problems = validate_bench_fleet(payload)
    assert not problems, problems
    save(
        "BENCH_fleet.json", json.dumps(payload, indent=2), smoke=not full_scale
    )
    assert bit_identical, (
        "streaming sample diverged from the row-loop oracle"
    )
    if full_scale:
        assert speedup >= 3.0, f"fleet speedup {speedup:.1f}x < 3x"


def validate_bench_fleet(manifest) -> list:
    """Schema check for ``BENCH_fleet.json``; returns problem strings."""
    problems = []
    if not isinstance(manifest, dict):
        return [f"manifest is {type(manifest).__name__}, expected dict"]
    if manifest.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema is {manifest.get('schema')!r}")
    for key in ("clusters", "total_vms", "total_servers"):
        value = manifest.get(key)
        if not isinstance(value, int) or value <= 0:
            problems.append(f"{key} is {value!r}, expected int > 0")
    for key in ("fleet_s", "peak_rss_mb"):
        value = manifest.get(key)
        if not isinstance(value, (int, float)) or value <= 0:
            problems.append(f"{key} is {value!r}, expected number > 0")
    digest = manifest.get("fleet_digest")
    if not isinstance(digest, str) or len(digest) != 64:
        problems.append(f"fleet_digest is {digest!r}, expected sha256 hex")
    if not isinstance(manifest.get("full_scale"), bool):
        problems.append("full_scale missing or not a bool")
    if manifest.get("rows_materialized") is not False:
        problems.append(
            f"rows_materialized is {manifest.get('rows_materialized')!r}, "
            "expected False"
        )
    sample = manifest.get("speedup_sample")
    if not isinstance(sample, dict):
        return problems + ["speedup_sample missing or not a dict"]
    for key in ("vms", "servers"):
        value = sample.get(key)
        if not isinstance(value, int) or value <= 0:
            problems.append(
                f"speedup_sample.{key} is {value!r}, expected int > 0"
            )
    for key in ("row_reference_s", "streaming_s", "speedup"):
        value = sample.get(key)
        if not isinstance(value, (int, float)) or value <= 0:
            problems.append(
                f"speedup_sample.{key} is {value!r}, expected number > 0"
            )
    if not isinstance(sample.get("bit_identical"), bool):
        problems.append("speedup_sample.bit_identical missing or not a bool")
    elif not sample["bit_identical"]:
        problems.append("speedup_sample.bit_identical is False")
    trajectory = manifest.get("scale_trajectory")
    if not isinstance(trajectory, list) or not trajectory:
        return problems + ["scale_trajectory missing or empty"]
    previous_servers = 0
    for i, point in enumerate(trajectory):
        if not isinstance(point, dict):
            problems.append(f"scale_trajectory[{i}] is not a dict")
            continue
        for key in ("vms_concurrent", "vms", "servers"):
            value = point.get(key)
            if not isinstance(value, int) or value <= 0:
                problems.append(
                    f"scale_trajectory[{i}].{key} is {value!r}, "
                    "expected int > 0"
                )
        if point.get("bit_identical") is not True:
            problems.append(f"scale_trajectory[{i}] is not bit-identical")
        servers = point.get("servers")
        if isinstance(servers, int):
            if servers < previous_servers:
                problems.append(
                    "scale_trajectory server counts are not non-decreasing"
                )
            previous_servers = servers
    return problems


def main(argv=None) -> int:
    """Run the bench as a script; ``--smoke`` shrinks every scale knob."""
    import pytest

    argv = list(sys.argv[1:] if argv is None else argv)
    if "--smoke" in argv:
        argv.remove("--smoke")
        os.environ.setdefault("REPRO_BENCH_FLEET_CLUSTERS", "6")
        os.environ.setdefault("REPRO_BENCH_FLEET_VMS", "300")
        os.environ.setdefault("REPRO_BENCH_FLEET_SPEEDUP_VMS", "1500")
    return pytest.main([__file__, "-q", "-p", "no:cacheprovider"] + argv)


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark: carbon-aware vs blind placement on the diurnal scenario.

Two gates, mirroring the fleet bench:

- ``test_carbon_golden_digest`` always runs (the CI smoke): it replays
  the divergent two-generation scenario (gen2 + gen3 baselines + a
  GreenSKU pool, where blind generation-routing and carbon-aware
  watts-per-core tiering genuinely disagree) under both policies at
  several chunk sizes and on the reference oracle of
  ``tests/oracles/allocation.py``, asserts each policy collapses to a
  single outcome digest and a single exact operational-kg value, and
  pins both against ``benchmarks/golden_carbon_digests.json`` —
  including a *nonzero* operational-carbon delta.  Refresh with
  ``REPRO_UPDATE_GOLDEN=1``.
- ``test_carbon_scale_overhead`` times the blind and carbon-aware
  replays at ``REPRO_BENCH_CARBON_VMS`` concurrent VMs on the streaming
  path and writes ``benchmarks/out/BENCH_carbon_aware.json``
  (``out/smoke/`` below the default scale; schema checked by
  :func:`validate_bench_carbon_aware`).

``--smoke`` shrinks the scale knob for CI.
"""

import json
import os
import pathlib
import sys
import time

from repro.allocation.cluster import (
    ClusterSpec,
    adopt_everything,
    outcome_digest,
    simulate,
)
from repro.allocation.traces import TraceParams, generate_trace
from repro.carbon.grid import CarbonAccountant, carbon_aware_policy, diurnal_signal
from repro.hardware.sku import baseline_gen2, baseline_gen3, greensku_full

from conftest import oracle

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_carbon_digests.json"

BENCH_SCHEMA = "repro-bench-carbon-aware/1"

GOLDEN_SEED = 7
GOLDEN_CONCURRENT = 150
GOLDEN_DAYS = 2.0

DEFAULT_CONCURRENT = 1200


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, str(default)))


def _scenario_cluster(mean_concurrent: int) -> ClusterSpec:
    """The divergent scenario, scaled: equal gen2/gen3 pools + green.

    Two baseline generations with different marginal watts-per-core
    (gen2 4.216 vs gen3 4.179) are what let the carbon-aware tiers
    disagree with blind generation routing; at the golden scale this is
    the verified 10 + 10 + 6 cluster.
    """
    n = max(4, round(mean_concurrent / 15))
    green = max(2, n * 6 // 10)
    return ClusterSpec.of(
        (baseline_gen2(), n),
        (baseline_gen3(), n),
        (greensku_full(), green),
    )


def _replay(policy_aware: bool, chunk, mean_concurrent: int):
    """One (policy, chunk size) replay; returns (digest, exact kg).

    ``chunk`` is the streaming replay's events per batch, or
    ``"oracle"`` for the reference scan and row loop.
    """
    params = TraceParams(
        duration_days=GOLDEN_DAYS, mean_concurrent_vms=mean_concurrent
    )
    trace = generate_trace(GOLDEN_SEED, params, name="carbon-scenario")
    cluster = _scenario_cluster(mean_concurrent)
    signal = diurnal_signal()
    kwargs = dict(
        adoption=adopt_everything,
        placement=carbon_aware_policy(signal) if policy_aware else None,
        accountant=CarbonAccountant(signal),
    )
    if chunk == "oracle":
        outcome = oracle("allocation").simulate(trace, cluster, **kwargs)
    else:
        outcome = simulate(trace, cluster, chunk_events=chunk, **kwargs)
    return outcome_digest(outcome), outcome.operational.total_kg


def _policy_identity(policy_aware: bool) -> dict:
    """Replay one policy at every chunk size + the oracle; must agree."""
    digests, kgs = set(), set()
    for chunk in ("oracle", 64, 4096):
        digest, kg = _replay(policy_aware, chunk, GOLDEN_CONCURRENT)
        digests.add(digest)
        kgs.add(kg)
    assert len(digests) == 1, (
        f"policy {'aware' if policy_aware else 'blind'} diverged across "
        f"chunk sizes and the oracle: {sorted(digests)}"
    )
    assert len(kgs) == 1, sorted(kgs)
    return {"digest": digests.pop(), "kg": kgs.pop()}


def test_carbon_golden_digest(save):
    """Both policies match the oracle and the pinned goldens."""
    blind = _policy_identity(policy_aware=False)
    aware = _policy_identity(policy_aware=True)
    current = {
        "blind": blind,
        "aware": aware,
        "delta_kg": blind["kg"] - aware["kg"],
    }
    if os.environ.get("REPRO_UPDATE_GOLDEN", "0") not in ("", "0"):
        GOLDEN_PATH.write_text(json.dumps(current, indent=2) + "\n")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert current == golden, (
        "carbon-aware scenario diverged from golden_carbon_digests.json"
    )
    assert aware["digest"] != blind["digest"], (
        "carbon-aware placement collapsed onto the blind outcome"
    )
    assert current["delta_kg"] != 0.0, (
        "diurnal benchmark scenario produced a zero operational delta"
    )
    save(
        "carbon_digests.txt",
        "\n".join(
            [
                f"blind: {blind['digest']} ({blind['kg']!r} kg)",
                f"aware: {aware['digest']} ({aware['kg']!r} kg)",
                f"delta: {current['delta_kg']!r} kg",
            ]
        ),
    )


def test_carbon_scale_overhead(save):
    """Time blind vs carbon-aware streaming replays at bench scale."""
    concurrent = _env_int("REPRO_BENCH_CARBON_VMS", DEFAULT_CONCURRENT)
    params = TraceParams(
        duration_days=GOLDEN_DAYS, mean_concurrent_vms=concurrent
    )
    cluster = _scenario_cluster(concurrent)
    signal = diurnal_signal()

    trace = generate_trace(GOLDEN_SEED, params, name="carbon-scenario")
    acct = CarbonAccountant(signal)
    t0 = time.perf_counter()
    blind = simulate(trace, cluster, adopt_everything, accountant=acct)
    blind_s = time.perf_counter() - t0

    trace = generate_trace(GOLDEN_SEED, params, name="carbon-scenario")
    acct = CarbonAccountant(signal)
    t0 = time.perf_counter()
    aware = simulate(
        trace, cluster, adopt_everything,
        placement=carbon_aware_policy(signal), accountant=acct,
    )
    aware_s = time.perf_counter() - t0

    blind_kg = blind.operational.total_kg
    aware_kg = aware.operational.total_kg
    payload = {
        "schema": BENCH_SCHEMA,
        "vms_concurrent": concurrent,
        "vms": int(trace.columns.n),
        "servers": cluster.total_servers,
        "blind_s": round(blind_s, 3),
        "aware_s": round(aware_s, 3),
        "overhead": round(aware_s / blind_s, 2),
        "blind_kg": blind_kg,
        "aware_kg": aware_kg,
        "delta_kg": blind_kg - aware_kg,
        "delta_fraction": (
            (blind_kg - aware_kg) / blind_kg if blind_kg else 0.0
        ),
        "blind_digest": outcome_digest(blind),
        "aware_digest": outcome_digest(aware),
    }
    problems = validate_bench_carbon_aware(payload)
    assert not problems, problems
    save(
        "BENCH_carbon_aware.json",
        json.dumps(payload, indent=2),
        smoke=concurrent < DEFAULT_CONCURRENT,
    )
    assert payload["blind_digest"] != payload["aware_digest"]


def validate_bench_carbon_aware(manifest) -> list:
    """Schema check for ``BENCH_carbon_aware.json``; returns problems."""
    problems = []
    if not isinstance(manifest, dict):
        return [f"manifest is {type(manifest).__name__}, expected dict"]
    if manifest.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema is {manifest.get('schema')!r}")
    for key in ("vms_concurrent", "vms", "servers"):
        value = manifest.get(key)
        if not isinstance(value, int) or value <= 0:
            problems.append(f"{key} is {value!r}, expected int > 0")
    for key in ("blind_s", "aware_s", "overhead", "blind_kg", "aware_kg"):
        value = manifest.get(key)
        if not isinstance(value, (int, float)) or value <= 0:
            problems.append(f"{key} is {value!r}, expected number > 0")
    for key in ("delta_kg", "delta_fraction"):
        value = manifest.get(key)
        if not isinstance(value, (int, float)):
            problems.append(f"{key} is {value!r}, expected number")
        elif value == 0:
            problems.append(f"{key} is zero — the scenario must diverge")
    for key in ("blind_digest", "aware_digest"):
        value = manifest.get(key)
        if not isinstance(value, str) or len(value) != 64:
            problems.append(f"{key} is {value!r}, expected sha256 hex")
    if manifest.get("blind_digest") == manifest.get("aware_digest"):
        problems.append("blind and aware digests are identical")
    return problems


def main(argv=None) -> int:
    """Run the bench as a script; ``--smoke`` shrinks the scale knob."""
    import pytest

    argv = list(sys.argv[1:] if argv is None else argv)
    if "--smoke" in argv:
        argv.remove("--smoke")
        os.environ.setdefault("REPRO_BENCH_CARBON_VMS", "200")
    return pytest.main([__file__, "-q", "-p", "no:cacheprovider"] + argv)


if __name__ == "__main__":
    raise SystemExit(main())

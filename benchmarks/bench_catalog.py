"""Benchmark: closure-keyed results catalog + incremental sweep driver.

Two gates, mirroring the fleet bench:

- ``test_catalog_incremental_cone`` always runs (the CI smoke): it
  builds a small fixed sweep, mutates exactly one trace input (the
  synthetic seed), and asserts the recompute set is exactly the
  invalidated cone — checked against the golden cone digest in
  ``benchmarks/golden_catalog_cone.json`` (refresh with
  ``REPRO_UPDATE_GOLDEN=1``) — and that every recomputed entry is
  byte-identical to a from-scratch sweep of the mutated inputs.
- ``test_catalog_warm_speedup`` runs a larger grid cold, then warm, and
  asserts the warm repeat (pure catalog reads) is >= 10x faster than
  cold compute, writing the machine-readable
  ``benchmarks/out/BENCH_catalog.json`` artifact (``out/smoke/`` below
  the default scale; schema checked by :func:`validate_bench_catalog`).

Scale knobs (``--smoke`` sets small values):

- ``REPRO_BENCH_CATALOG_VMS``: synthetic mean concurrent VMs
  (default 150).
- ``REPRO_BENCH_CATALOG_DAYS``: synthetic trace window (default 2.0).
"""

import dataclasses
import json
import os
import pathlib
import sys
import time

from repro.catalog import ResultsCatalog, SweepSpec, run_sweep
from repro.core.provenance import ProvenanceLog

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_catalog_cone.json"

BENCH_SCHEMA = "repro-bench-catalog/1"

DEFAULT_VMS = 150
DEFAULT_DAYS = 2.0

#: The fixed cone-gate grid: small, fast, and independent of the scale
#: knobs so the golden digest never moves with benchmark sizing.
CONE_SPEC = SweepSpec(
    skus=("GreenSKU-Full",),
    adoption_rules=("carbon-aware", "always"),
    buffer_fractions=(0.15,),
    cxl_dimm_counts=(None, 8),
    backends=("synthetic",),
    seed=7,
    vms=40,
    days=1.0,
)


def _speedup_spec() -> SweepSpec:
    """The warm-speedup grid: 12 points, sized by the scale knobs."""
    return SweepSpec(
        skus=("GreenSKU-Full",),
        adoption_rules=("carbon-aware", "performance-only", "always"),
        buffer_fractions=(0.15, 0.25),
        cxl_dimm_counts=(None, 8),
        backends=("synthetic",),
        seed=7,
        vms=int(os.environ.get("REPRO_BENCH_CATALOG_VMS", DEFAULT_VMS)),
        days=float(os.environ.get("REPRO_BENCH_CATALOG_DAYS", DEFAULT_DAYS)),
    )


def _entry_bytes(catalog, keys):
    """key -> raw on-disk entry bytes (the bit-identity witness)."""
    out = {}
    for key in keys:
        with open(catalog.entry_path(key), "rb") as fh:
            out[key] = fh.read()
    return out


def test_catalog_incremental_cone(save, tmp_path):
    """Mutating one trace input recomputes exactly its cone, bit-identically."""
    catalog = ResultsCatalog(tmp_path / "catalog")
    log = ProvenanceLog(tmp_path / "provenance.jsonl")

    cold = run_sweep(CONE_SPEC, catalog, log)
    assert len(cold.recomputed) == len(cold.points)
    baseline_bytes = _entry_bytes(catalog, cold.live_keys())

    # Unchanged rerun: zero recomputes, zero invalidation, zero byte churn.
    repeat = run_sweep(CONE_SPEC, catalog, log)
    assert repeat.recomputed == []
    assert repeat.invalidation.invalid == ()
    assert len(repeat.warm) == len(cold.points)
    assert _entry_bytes(catalog, repeat.live_keys()) == baseline_bytes

    # Mutate exactly one input: the synthetic trace seed.
    mutated_spec = dataclasses.replace(CONE_SPEC, seed=CONE_SPEC.seed + 1)
    mutated = run_sweep(mutated_spec, catalog, log)
    assert mutated.invalidation.changed_inputs == ("trace/synthetic",)
    expected_cone = tuple(
        sorted([p.artifact_id for p in cold.points] + ["sweep/summary"])
    )
    assert mutated.invalidation.invalid == expected_cone
    assert sorted(mutated.recomputed) == sorted(
        p.artifact_id for p in mutated.points
    )
    cone_digest = mutated.invalidation.cone_digest()

    if os.environ.get("REPRO_UPDATE_GOLDEN", "0") not in ("", "0"):
        GOLDEN_PATH.write_text(
            json.dumps(
                {
                    "changed_inputs": list(
                        mutated.invalidation.changed_inputs
                    ),
                    "invalid": list(mutated.invalidation.invalid),
                    "cone_digest": cone_digest,
                },
                indent=2,
            )
            + "\n"
        )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert cone_digest == golden["cone_digest"], (
        "invalidation cone diverged from the golden "
        f"({cone_digest} != {golden['cone_digest']})"
    )

    # Bit-identity: the incremental recompute must match a from-scratch
    # sweep of the mutated inputs, byte for byte on disk.
    scratch = ResultsCatalog(tmp_path / "scratch")
    scratch_out = run_sweep(
        mutated_spec, scratch, ProvenanceLog(tmp_path / "scratch.jsonl")
    )
    assert mutated.keys == scratch_out.keys
    assert _entry_bytes(catalog, mutated.live_keys()) == _entry_bytes(
        scratch, scratch_out.live_keys()
    )

    # The old seed's entries still exist (closure keys never collide)
    # until gc reclaims them.
    assert set(baseline_bytes) & set(catalog.keys()) == set(baseline_bytes)
    removed = catalog.gc(mutated.live_keys())
    assert removed == len(baseline_bytes)

    save(
        "catalog_cone.txt",
        "\n".join(
            [f"changed inputs: {', '.join(mutated.invalidation.changed_inputs)}"]
            + [f"invalid: {a}" for a in mutated.invalidation.invalid]
            + [f"cone digest: {cone_digest}"]
        ),
    )


def test_catalog_warm_speedup(save, tmp_path):
    """A warm repeat sweep (catalog reads) is >= 10x faster than cold."""
    spec = _speedup_spec()
    catalog = ResultsCatalog(tmp_path / "catalog")
    log = ProvenanceLog(tmp_path / "provenance.jsonl")

    t0 = time.perf_counter()
    cold = run_sweep(spec, catalog, log)
    cold_s = time.perf_counter() - t0
    assert len(cold.recomputed) == len(cold.points)

    t0 = time.perf_counter()
    warm = run_sweep(spec, catalog, log)
    warm_s = time.perf_counter() - t0
    assert warm.recomputed == []
    assert len(warm.warm) == len(cold.points)
    assert warm.summary == cold.summary

    speedup = cold_s / warm_s
    payload = {
        "schema": BENCH_SCHEMA,
        "points": len(cold.points),
        "vms": spec.vms,
        "days": spec.days,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(speedup, 1),
        "warm_reads": len(warm.warm),
        "recomputed_warm": len(warm.recomputed),
        "catalog_entries": len(catalog.keys()),
        "catalog_bytes": catalog.manifest()["total_bytes"],
    }
    problems = validate_bench_catalog(payload)
    assert not problems, problems
    save(
        "BENCH_catalog.json",
        json.dumps(payload, indent=2),
        smoke=spec.vms < DEFAULT_VMS or spec.days < DEFAULT_DAYS,
    )
    assert speedup >= 10.0, (
        f"warm catalog repeat only {speedup:.1f}x faster than cold compute"
    )


def validate_bench_catalog(manifest) -> list:
    """Schema check for ``BENCH_catalog.json``; returns problem strings."""
    problems = []
    if not isinstance(manifest, dict):
        return [f"manifest is {type(manifest).__name__}, expected dict"]
    if manifest.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema is {manifest.get('schema')!r}")
    for key in ("points", "warm_reads", "catalog_entries", "catalog_bytes"):
        value = manifest.get(key)
        if not isinstance(value, int) or value <= 0:
            problems.append(f"{key} is {value!r}, expected int > 0")
    for key in ("vms", "days", "cold_s", "warm_s", "speedup"):
        value = manifest.get(key)
        if not isinstance(value, (int, float)) or value <= 0:
            problems.append(f"{key} is {value!r}, expected number > 0")
    if manifest.get("recomputed_warm") != 0:
        problems.append(
            f"recomputed_warm is {manifest.get('recomputed_warm')!r}, "
            "expected 0 (a warm repeat must not recompute)"
        )
    speedup = manifest.get("speedup")
    if isinstance(speedup, (int, float)) and speedup < 10.0:
        problems.append(f"speedup {speedup!r} < 10x")
    return problems


def main(argv=None) -> int:
    """Run the bench as a script; ``--smoke`` shrinks the scale knobs."""
    import pytest

    argv = list(sys.argv[1:] if argv is None else argv)
    if "--smoke" in argv:
        argv.remove("--smoke")
        os.environ.setdefault("REPRO_BENCH_CATALOG_VMS", "40")
        os.environ.setdefault("REPRO_BENCH_CATALOG_DAYS", "1.0")
    return pytest.main([__file__, "-q", "-p", "no:cacheprovider"] + argv)


if __name__ == "__main__":
    raise SystemExit(main())

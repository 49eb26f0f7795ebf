"""Property tests: invalidation soundness/minimality + kill/resume sweeps.

The properties the incremental driver's correctness rests on:

- **Soundness** — any changed input invalidates every artifact
  downstream of it (nothing stale survives).
- **Minimality** — with no changed inputs, nothing is invalidated and a
  repeat sweep recomputes nothing while leaving every catalog entry
  byte-identical.
- **Crash safety** — a sweep whose workers are killed mid-run and then
  resumed produces byte-identical catalog entries to an uninterrupted
  sweep.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import ResultsCatalog, SweepSpec, run_sweep
from repro.core.faults import FaultPlan
from repro.core.provenance import (
    ProvenanceLog,
    ProvenanceRecord,
    invalidated,
)
from repro.core.resilience import (
    CheckpointJournal,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.core.settings import using

# -- random layered DAGs of provenance records ---------------------------------

LEAVES = ("leaf/a", "leaf/b", "leaf/c", "leaf/d")


@st.composite
def provenance_graphs(draw):
    """A layered DAG: every node consumes leaves and/or earlier nodes.

    Edge digests are kept *fresh* (each artifact edge carries the
    upstream's current output digest), so invalidation comes only from
    the changed-leaf diff — the property under test.
    """
    n_nodes = draw(st.integers(min_value=1, max_value=8))
    latest = {}
    for i in range(n_nodes):
        node = f"node/{i}"
        inputs = {}
        names = draw(
            st.sets(st.sampled_from(LEAVES), min_size=1, max_size=3)
        )
        for leaf in names:
            inputs[leaf] = f"digest-{leaf}"
        if latest:
            uses = draw(
                st.sets(
                    st.sampled_from(sorted(latest)), min_size=0, max_size=2
                )
            )
            for upstream in uses:
                inputs[upstream] = latest[upstream].output_digest
        latest[node] = ProvenanceRecord.make(
            node, "task", inputs, f"out-{node}"
        )
    changed = draw(st.sets(st.sampled_from(LEAVES), max_size=len(LEAVES)))
    return latest, changed


def _downstream_closure(latest, changed_leaves):
    """The expected cone: consumers of changed leaves, then dependents."""
    invalid = {
        node
        for node, record in latest.items()
        if any(name in changed_leaves for name, _ in record.inputs)
    }
    grew = True
    while grew:
        grew = False
        for node, record in latest.items():
            if node in invalid:
                continue
            if any(name in invalid for name, _ in record.inputs):
                invalid.add(node)
                grew = True
    return invalid


class TestInvalidationProperties:
    @settings(deadline=None, max_examples=60)
    @given(data=provenance_graphs())
    def test_soundness_and_exactness(self, data):
        latest, changed = data
        current = {
            leaf: (
                f"digest-{leaf}-CHANGED" if leaf in changed
                else f"digest-{leaf}"
            )
            for leaf in LEAVES
        }
        report = invalidated(latest, current)
        expected = _downstream_closure(latest, changed)
        # Soundness: everything downstream of a change is in the cone.
        assert expected <= set(report.invalid)
        # Minimality: nothing else is (fresh edges, unchanged leaves).
        assert set(report.invalid) == expected
        used = {
            name
            for record in latest.values()
            for name, _ in record.inputs
            if name in LEAVES
        }
        assert set(report.changed_inputs) == (changed & used)

    @settings(deadline=None, max_examples=60)
    @given(data=provenance_graphs())
    def test_no_change_means_empty_cone(self, data):
        latest, _changed = data
        current = {leaf: f"digest-{leaf}" for leaf in LEAVES}
        report = invalidated(latest, current)
        assert report.invalid == ()
        assert report.changed_inputs == ()


# -- sweep-level minimality and crash safety -----------------------------------

TINY = SweepSpec(
    skus=("GreenSKU-Full",),
    adoption_rules=("carbon-aware", "always"),
    buffer_fractions=(0.15,),
    cxl_dimm_counts=(None,),
    backends=("synthetic",),
    seed=5,
    vms=30,
    days=0.5,
)


def _entry_bytes(catalog):
    return {
        key: catalog.entry_path(key).read_bytes() for key in catalog.keys()
    }


class TestSweepMinimality:
    def test_untouched_inputs_zero_recompute_identical_bytes(self, tmp_path):
        catalog = ResultsCatalog(tmp_path / "catalog")
        log = ProvenanceLog(tmp_path / "p.jsonl")
        run_sweep(TINY, catalog, log)
        before = _entry_bytes(catalog)
        for _ in range(2):
            outcome = run_sweep(TINY, catalog, log)
            assert outcome.recomputed == []
            assert outcome.invalidation.invalid == ()
        assert _entry_bytes(catalog) == before

    def test_changed_input_recomputes_downstream(self, tmp_path):
        catalog = ResultsCatalog(tmp_path / "catalog")
        log = ProvenanceLog(tmp_path / "p.jsonl")
        run_sweep(TINY, catalog, log)
        mutated = dataclasses.replace(TINY, vms=TINY.vms + 5)
        outcome = run_sweep(mutated, catalog, log)
        # Soundness at the sweep level: the whole synthetic cone redoes.
        assert set(outcome.recomputed) == {
            p.artifact_id for p in outcome.points
        }


class TestKillResumeBitIdentity:
    def test_killed_then_resumed_sweep_matches_clean(self, tmp_path):
        retry = RetryPolicy(
            max_retries=2, backoff_base_s=0.0, sleep=lambda _s: None
        )

        # Clean reference run, no faults.
        clean_catalog = ResultsCatalog(tmp_path / "clean")
        run_sweep(
            TINY, clean_catalog, ProvenanceLog(tmp_path / "clean.jsonl")
        )

        # Faulted run: first attempt of every task is killed; retries
        # recover through the checkpoint journal.
        catalog = ResultsCatalog(tmp_path / "faulted")
        log = ProvenanceLog(tmp_path / "faulted.jsonl")
        journal = CheckpointJournal(directory=tmp_path / "journal")
        policy = ResiliencePolicy(
            journal=journal,
            retry=retry,
            faults=FaultPlan(kill_indices=(0, 1), kill_attempts=1),
        )
        with using(policy=policy):
            outcome = run_sweep(TINY, catalog, log)
        assert len(outcome.recomputed) == 2
        assert _entry_bytes(catalog) == _entry_bytes(clean_catalog)

        # And a resumed warm pass over the same journal stays identical.
        with using(policy=ResiliencePolicy(journal=journal, retry=retry)):
            warm = run_sweep(TINY, catalog, log)
        assert warm.recomputed == []
        assert _entry_bytes(catalog) == _entry_bytes(clean_catalog)

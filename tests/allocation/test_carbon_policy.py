"""Carbon-aware placement: policy resolution, tiering, oracle equivalence."""

import pytest

from repro.allocation.cluster import (
    CARBON_PLACEMENT_POLICIES,
    ClusterSpec,
    PlacementPolicy,
    adopt_everything,
    outcome_digest,
    resolve_placement,
    simulate,
)
from repro.allocation.traces import TraceParams, generate_trace
from repro.carbon.grid import CarbonAccountant, carbon_aware_policy, diurnal_signal
from repro.core.errors import ConfigError
from repro.hardware.sku import baseline_gen2, baseline_gen3, greensku_full
from tests.oracles import allocation as oracle

PARAMS = TraceParams(duration_days=2.0, mean_concurrent_vms=150)


def _divergent_cluster():
    """Two baseline generations + green: blind and aware disagree here."""
    return ClusterSpec.of(
        (baseline_gen2(), 10), (baseline_gen3(), 10), (greensku_full(), 6)
    )


def _homogeneous_cluster():
    """One baseline generation: every server shares one carbon tier."""
    return ClusterSpec.of((baseline_gen3(), 16), (greensku_full(), 6))


def _run(cluster, replay=simulate, **kwargs):
    """Replay trace 7 with ``replay``: production ``simulate`` or the oracle."""
    return replay(
        generate_trace(7, PARAMS), cluster, adoption=adopt_everything, **kwargs
    )


class TestResolution:
    def test_blind_resolves_to_none(self):
        assert resolve_placement(None) is None
        assert resolve_placement("blind") is None
        assert resolve_placement(PlacementPolicy(name="blind")) is None

    def test_carbon_aware_needs_a_built_policy(self):
        with pytest.raises(ConfigError, match="named by string alone"):
            resolve_placement("carbon_aware")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown placement policy"):
            resolve_placement("greedy")

    def test_policy_validation(self):
        assert set(CARBON_PLACEMENT_POLICIES) == {"blind", "carbon_aware"}
        with pytest.raises(ConfigError, match="carbon_key"):
            PlacementPolicy(name="carbon_aware")
        with pytest.raises(ConfigError, match="unknown placement policy"):
            PlacementPolicy(name="random")

    def test_built_policy_passes_through(self):
        policy = carbon_aware_policy(diurnal_signal())
        assert resolve_placement(policy) is policy


class TestEquivalence:
    def test_carbon_aware_identical_across_engines_and_chunkings(self):
        """The production replay at any chunk size equals the oracle."""
        golden = outcome_digest(
            _run(
                _divergent_cluster(),
                oracle.simulate,
                placement=carbon_aware_policy(diurnal_signal()),
            )
        )
        for chunk in (1, 64, 4096):
            outcome = _run(
                _divergent_cluster(),
                placement=carbon_aware_policy(diurnal_signal()),
                chunk_events=chunk,
            )
            assert outcome_digest(outcome) == golden, chunk

    def test_aware_diverges_from_blind_on_two_generations(self):
        blind = _run(_divergent_cluster())
        aware = _run(
            _divergent_cluster(),
            placement=carbon_aware_policy(diurnal_signal()),
        )
        assert outcome_digest(blind) != outcome_digest(aware)

    def test_homogeneous_tiers_reduce_to_blind(self):
        # One baseline generation -> a single carbon tier per pool, so
        # the tiered backend must reproduce blind placement exactly.
        blind = _run(_homogeneous_cluster())
        aware = _run(
            _homogeneous_cluster(),
            placement=carbon_aware_policy(diurnal_signal()),
        )
        assert outcome_digest(blind) == outcome_digest(aware)

    def test_accountant_never_changes_the_outcome(self):
        bare = _run(_divergent_cluster())
        accounted = _run(
            _divergent_cluster(),
            accountant=CarbonAccountant(diurnal_signal()),
        )
        assert outcome_digest(bare) == outcome_digest(accounted)


class TestAccounting:
    def test_operational_kg_engine_invariant(self):
        """The oracle and every chunking integrate the same exact kg."""
        golden = _run(
            _divergent_cluster(),
            oracle.simulate,
            placement=carbon_aware_policy(diurnal_signal()),
            accountant=CarbonAccountant(diurnal_signal()),
        ).operational.total_kg
        for chunk in (1, 64, 4096):
            outcome = _run(
                _divergent_cluster(),
                placement=carbon_aware_policy(diurnal_signal()),
                accountant=CarbonAccountant(diurnal_signal()),
                chunk_events=chunk,
            )
            assert outcome.operational.total_kg == golden, chunk

    def test_aware_saves_operational_carbon_here(self):
        results = {}
        for label, placement in (
            ("blind", None),
            ("aware", carbon_aware_policy(diurnal_signal())),
        ):
            outcome = _run(
                _divergent_cluster(),
                placement=placement,
                accountant=CarbonAccountant(diurnal_signal()),
            )
            results[label] = outcome.operational
        # Same VMs either way: identical core-hours, different kg.
        assert results["aware"].total_core_hours == pytest.approx(
            results["blind"].total_core_hours
        )
        assert results["aware"].total_kg < results["blind"].total_kg

    def test_outcome_without_accountant_has_no_report(self):
        outcome = _run(_divergent_cluster())
        assert outcome.operational is None

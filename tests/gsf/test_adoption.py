"""Adoption component tests."""

import math

import pytest

from repro.allocation.traces import TraceParams, generate_trace
from repro.analysis.ablations import ADOPTION_RULES, adoption_policy
from repro.carbon.model import CarbonModel
from repro.core.errors import ConfigError
from repro.gsf import adoption
from repro.gsf.adoption import AdoptionModel, default_baseline_skus
from repro.gsf.framework import Gsf, GsfConfig
from repro.hardware.sku import (
    all_greenskus,
    greensku_efficient,
    greensku_full,
)
from repro.perf.apps import APP_BY_NAME


@pytest.fixture(scope="module")
def full_adoption(carbon_model):
    return AdoptionModel(carbon_model, greensku_full())


class TestDecisions:
    def test_factor_one_apps_adopt(self, full_adoption):
        # Factor-1 apps always save carbon on the (cheaper-per-core)
        # GreenSKU.
        for name in ("Redis", "Shore", "Img-DNN", "Caddy", "Envoy"):
            assert full_adoption.decide(name, 3).adopt, name

    def test_silo_never_adopts(self, full_adoption):
        for gen in (1, 2, 3):
            decision = full_adoption.decide("Silo", gen)
            assert not decision.adopt
            assert math.isinf(decision.scaling_factor)

    def test_masstree_adopts_only_on_old_gens(self, full_adoption):
        assert full_adoption.decide("Masstree", 1).adopt
        assert full_adoption.decide("Masstree", 2).adopt
        assert not full_adoption.decide("Masstree", 3).adopt

    def test_adoption_compares_carbon(self, full_adoption):
        decision = full_adoption.decide("Moses", 3)  # factor 1.25
        assert decision.green_carbon_kg == pytest.approx(
            1.25 * 8 * full_adoption._green_per_core
        )
        assert decision.adopt == (
            decision.green_carbon_kg < decision.baseline_carbon_kg
        )

    def test_savings_fraction_sign(self, full_adoption):
        adopted = full_adoption.decide("Redis", 3)
        assert adopted.savings_fraction > 0
        rejected = full_adoption.decide("Silo", 3)
        assert rejected.savings_fraction == -math.inf

    def test_decisions_cover_all_apps_and_gens(self, full_adoption):
        decisions = full_adoption.decisions()
        assert len(decisions) == 20 * 3

    def test_unknown_app_rejected(self, full_adoption):
        with pytest.raises(ConfigError):
            full_adoption.decide("Memcached", 3)

    def test_unknown_generation_rejected(self, full_adoption):
        with pytest.raises(ConfigError):
            full_adoption.decide("Redis", 5)

    def test_decisions_cached(self, full_adoption):
        a = full_adoption.decide("Redis", 3)
        b = full_adoption.decide("Redis", 3)
        assert a is b


class TestPolicy:
    def test_policy_returns_factor_for_adopters(self, full_adoption):
        policy = full_adoption.policy()
        assert policy("Redis", 3) == 1.0
        assert policy("Moses", 3) == 1.25

    def test_policy_none_for_non_adopters(self, full_adoption):
        policy = full_adoption.policy()
        assert policy("Silo", 3) is None


class TestOneTablePerModel:
    """Every adoption rule on a model reads one batched Table III."""

    @pytest.fixture
    def table_calls(self, monkeypatch):
        calls = []
        real = adoption.scaling_table

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(adoption, "scaling_table", counting)
        return calls

    def test_one_table_serves_every_rule(self, table_calls, monkeypatch):
        gsf = Gsf()
        model = gsf.adoption_model(greensku_full())
        # Build the performance-only rule on this same model.
        monkeypatch.setattr(gsf, "adoption_model", lambda sku: model)
        for name, gen in (("Redis", 3), ("Silo", 1), ("Moses", 3)):
            model.decide(name, gen)
        model.decisions()
        model.adopted_core_hour_share()
        carbon_aware = model.policy()
        performance_only = adoption_policy(
            "performance-only", gsf, greensku_full()
        )
        cells = [(name, gen) for name in model.apps for gen in (1, 2, 3)]
        for i in range(1000):
            carbon_aware(*cells[i % len(cells)])
            performance_only(*cells[i % len(cells)])
        assert len(table_calls) == 1

    def test_invalid_cells_build_no_table(self, table_calls, carbon_model):
        model = AdoptionModel(carbon_model, greensku_full())
        with pytest.raises(ConfigError):
            model.decide("Memcached", 3)
        with pytest.raises(ConfigError):
            model.decide("Redis", 5)
        assert table_calls == []


class TestOneTablePerProcess:
    """Fresh frameworks and models share one Table III per input value."""

    def test_every_greensku_rule_and_intensity(self, table_derivations):
        trace = generate_trace(
            5, TraceParams(mean_concurrent_vms=20, duration_days=0.5)
        )
        cells = [(name, gen) for name in APP_BY_NAME for gen in (1, 2, 3)]
        for cxl_scaling in (False, True):
            for sku in all_greenskus():
                for rule in ADOPTION_RULES:
                    gsf = Gsf(GsfConfig(cxl_scaling=cxl_scaling))
                    policy = adoption_policy(rule, gsf, sku)
                    for cell in cells:
                        policy(*cell)
                    gsf.adoption_model(sku).adopted_core_hour_share()
            Gsf(GsfConfig(cxl_scaling=cxl_scaling)).intensity_sweep(
                trace, (0.02, 0.1, 0.3)
            )
            # cxl=True adds exactly one derivation.
            assert len(table_derivations) == 1 + cxl_scaling
        assert [call[1:] for call in table_derivations] == [
            ((1, 2, 3), False),
            ((1, 2, 3), True),
        ]


class TestAdoptedShare:
    def test_full_share_in_expected_band(self, full_adoption):
        # Most of the fleet adopts GreenSKU-Full against Gen3.
        share = full_adoption.adopted_core_hour_share()
        assert 0.6 < share < 0.9

    def test_efficient_adopts_less_than_full(self, carbon_model):
        # GreenSKU-Efficient's smaller per-core savings (15% open data)
        # reject the factor-1.25 applications.
        efficient = AdoptionModel(carbon_model, greensku_efficient())
        full = AdoptionModel(carbon_model, greensku_full())
        assert (
            efficient.adopted_core_hour_share()
            < full.adopted_core_hour_share()
        )


class TestIntensityDependence:
    def test_zero_ci_expands_adoption(self):
        # At zero carbon intensity only embodied matters; GreenSKU-Full's
        # 38% embodied savings admit even factor-1.5 applications.
        clean = AdoptionModel(CarbonModel().at_intensity(0.0), greensku_full())
        assert clean.decide("Xapian", 3).adopt  # factor 1.5

    def test_default_ci_rejects_xapian(self, full_adoption):
        # At CI=0.1, 1.5x the cores costs more carbon than it saves.
        assert not full_adoption.decide("Xapian", 3).adopt

    def test_default_baselines(self):
        baselines = default_baseline_skus()
        assert set(baselines) == {1, 2, 3}

"""Component spec tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.hardware.components import (
    Category,
    ComponentSpec,
    CpuSpec,
    CxlControllerSpec,
    DramSpec,
    SsdSpec,
    reused,
    scaled_dram,
    scaled_ssd,
)


def make_spec(**overrides):
    base = dict(
        name="part",
        category=Category.OTHER,
        tdp_watts=10.0,
        embodied_kg=5.0,
    )
    base.update(overrides)
    return ComponentSpec(**base)


class TestComponentSpec:
    def test_effective_embodied_new(self):
        assert make_spec().effective_embodied_kg == 5.0

    def test_effective_embodied_reused_is_zero(self):
        # Reused parts are second-life: zero embodied carbon.
        assert make_spec(reused=True).effective_embodied_kg == 0.0

    def test_as_reused_keeps_power_and_afr(self):
        spec = make_spec(afr_per_100_servers=0.2)
        second_life = spec.as_reused()
        assert second_life.tdp_watts == spec.tdp_watts
        assert second_life.afr_per_100_servers == spec.afr_per_100_servers
        assert second_life.effective_embodied_kg == 0.0

    def test_reused_alias(self):
        assert reused(make_spec()).reused

    def test_powered_watts_applies_derate_and_loss(self):
        spec = make_spec(tdp_watts=100, loss_factor=0.05)
        assert spec.powered_watts(0.44) == pytest.approx(100 * 0.44 * 1.05)

    def test_powered_watts_rejects_bad_derate(self):
        with pytest.raises(ConfigError):
            make_spec().powered_watts(1.5)

    def test_negative_tdp_rejected(self):
        with pytest.raises(ConfigError):
            make_spec(tdp_watts=-1)

    def test_negative_embodied_rejected(self):
        with pytest.raises(ConfigError):
            make_spec(embodied_kg=-1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field",
        ["tdp_watts", "embodied_kg", "loss_factor", "afr_per_100_servers"],
    )
    def test_non_finite_rejected(self, field, bad):
        with pytest.raises(ConfigError, match=r"^part: .* must be finite"):
            make_spec(**{field: bad})

    def test_negative_afr_rejected(self):
        with pytest.raises(ConfigError):
            make_spec(afr_per_100_servers=-0.1)

    @given(st.floats(min_value=0, max_value=1))
    def test_powered_watts_monotone_in_derate(self, derate):
        spec = make_spec(tdp_watts=200)
        assert spec.powered_watts(derate) <= spec.powered_watts(1.0)


class TestCpuSpec:
    def make(self, **overrides):
        base = dict(
            name="cpu",
            category=Category.CPU,
            tdp_watts=400,
            embodied_kg=28.3,
            cores=128,
            max_freq_ghz=3.0,
            llc_mib=256,
            perf_per_core=0.9,
        )
        base.update(overrides)
        return CpuSpec(**base)

    def test_tdp_per_core(self):
        assert self.make().tdp_per_core == pytest.approx(400 / 128)

    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigError):
            self.make(cores=0)

    def test_zero_perf_rejected(self):
        with pytest.raises(ConfigError):
            self.make(perf_per_core=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_perf_rejected(self, bad):
        with pytest.raises(ConfigError, match="per-core perf must be finite"):
            self.make(perf_per_core=bad)

    @pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf")])
    def test_non_integer_cores_rejected(self, bad):
        with pytest.raises(ConfigError, match="CPU cores must be an integer"):
            self.make(cores=bad)

    @pytest.mark.parametrize(
        "field,bad,label",
        [
            (field, bad, label)
            for field, label in (
                ("max_freq_ghz", "max frequency"),
                ("mem_bw_gbps", "memory bandwidth"),
            )
            for bad in (float("nan"), float("inf"), -1.0)
        ]
        + [("llc_mib", bad, "LLC MiB") for bad in (float("nan"), 1.5, -1)],
    )
    def test_bad_field_rejected(self, field, bad, label):
        with pytest.raises(ConfigError, match=f"cpu: {label} must be"):
            self.make(**{field: bad})


class TestDramSpec:
    def make(self, **overrides):
        base = dict(
            name="dimm",
            category=Category.DRAM,
            tdp_watts=0.37 * 64,
            embodied_kg=1.65 * 64,
            capacity_gb=64,
        )
        base.update(overrides)
        return DramSpec(**base)

    def test_watts_per_gb(self):
        assert self.make().watts_per_gb == pytest.approx(0.37)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            self.make(capacity_gb=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_capacity_rejected(self, bad):
        with pytest.raises(ConfigError, match="dimm: DIMM capacity must be"):
            self.make(capacity_gb=bad)

    def test_unknown_technology_rejected(self):
        with pytest.raises(ConfigError):
            self.make(technology="ddr3")

    def test_scaled_dram_scales_linearly(self):
        base = self.make()
        doubled = scaled_dram(base, 128)
        assert doubled.capacity_gb == 128
        assert doubled.tdp_watts == pytest.approx(2 * base.tdp_watts)
        assert doubled.embodied_kg == pytest.approx(2 * base.embodied_kg)

    def test_scaled_dram_rejects_zero(self):
        with pytest.raises(ConfigError):
            scaled_dram(self.make(), 0)

    def test_scaled_dram_custom_name(self):
        assert scaled_dram(self.make(), 32, name="tiny").name == "tiny"


class TestSsdSpec:
    def make(self, **overrides):
        base = dict(
            name="ssd",
            category=Category.SSD,
            tdp_watts=11.2,
            embodied_kg=34.6,
            capacity_tb=2.0,
        )
        base.update(overrides)
        return SsdSpec(**base)

    def test_watts_per_tb(self):
        assert self.make().watts_per_tb == pytest.approx(5.6)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            self.make(capacity_tb=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_capacity_rejected(self, bad):
        with pytest.raises(ConfigError, match="ssd: SSD capacity must be"):
            self.make(capacity_tb=bad)

    @pytest.mark.parametrize(
        "field,bad,label",
        [
            (field, bad, label)
            for field, label in (
                ("write_bw_gbps", "write bandwidth"),
                ("write_kiops", "write kIOPS"),
            )
            for bad in (float("nan"), float("inf"), -5.0)
        ],
    )
    def test_bad_field_rejected(self, field, bad, label):
        with pytest.raises(ConfigError, match=f"ssd: {label} must be"):
            self.make(**{field: bad})

    def test_unknown_interface_rejected(self):
        with pytest.raises(ConfigError):
            self.make(interface="u.2")

    def test_scaled_ssd(self):
        base = self.make()
        bigger = scaled_ssd(base, 4.0)
        assert bigger.capacity_tb == 4.0
        assert bigger.tdp_watts == pytest.approx(2 * base.tdp_watts)


class TestCxlControllerSpec:
    def make(self, **overrides):
        base = dict(
            name="cxl",
            category=Category.CXL,
            tdp_watts=5.8,
            embodied_kg=2.5,
        )
        base.update(overrides)
        return CxlControllerSpec(**base)

    def test_slots_must_be_positive(self):
        with pytest.raises(ConfigError):
            self.make(dimm_slots=0)

    @pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf")])
    def test_non_integer_slots_rejected(self, bad):
        with pytest.raises(ConfigError, match="cxl: DIMM slots must be"):
            self.make(dimm_slots=bad)

    @pytest.mark.parametrize(
        "field,bad,label",
        [
            (field, bad, label)
            for field, label in (
                ("added_bw_gbps", "added bandwidth"),
                ("load_latency_ns", "load latency"),
            )
            for bad in (float("nan"), float("inf"), -1.0)
        ]
        + [
            ("pcie_lanes", bad, "PCIe lanes")
            for bad in (float("nan"), 1.5, -1)
        ],
    )
    def test_bad_field_rejected(self, field, bad, label):
        with pytest.raises(ConfigError, match=f"cxl: {label} must be"):
            self.make(**{field: bad})

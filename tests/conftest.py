"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.allocation.traces import TraceParams, generate_trace
from repro.carbon.model import CarbonModel
from repro.gsf.framework import Gsf
from repro.hardware.datacenter import DataCenterConfig, appendix_config
from repro.hardware.rack import RackConfig
from repro.hardware.sku import (
    baseline_gen3,
    greensku_cxl,
    greensku_efficient,
    greensku_full,
)


@pytest.fixture(scope="session")
def carbon_model():
    """The default (open-data, Table VI) carbon model."""
    return CarbonModel()


@pytest.fixture(scope="session")
def appendix_model():
    """The Section V worked-example parameterization."""
    return CarbonModel(appendix_config())


@pytest.fixture(scope="session")
def baseline_sku():
    return baseline_gen3()


@pytest.fixture(scope="session")
def efficient_sku():
    return greensku_efficient()


@pytest.fixture(scope="session")
def cxl_sku():
    return greensku_cxl()


@pytest.fixture(scope="session")
def full_sku():
    return greensku_full()


@pytest.fixture(scope="session")
def small_trace():
    """A small, fast trace for allocation/sizing tests."""
    return generate_trace(
        seed=42, params=TraceParams(duration_days=5.0, mean_concurrent_vms=80)
    )


@pytest.fixture(scope="session")
def medium_trace():
    """A mid-size trace for end-to-end GSF tests."""
    return generate_trace(
        seed=7, params=TraceParams(duration_days=7.0, mean_concurrent_vms=250)
    )


@pytest.fixture(scope="session")
def gsf():
    return Gsf()


@pytest.fixture
def table_derivations(monkeypatch):
    """Record each uncached Table III derivation, from an empty memo.

    Yields a list that gains one ``(app names, generations, cxl)`` entry
    per derivation behind :func:`repro.perf.scaling.scaling_table`.
    """
    from repro.perf import scaling

    calls = []
    derive = scaling._derive_table

    def counting(apps, generations, cxl):
        calls.append((tuple(app.name for app in apps), generations, cxl))
        return derive(apps, generations, cxl)

    scaling._memo_table.cache_clear()
    monkeypatch.setattr(scaling, "_derive_table", counting)
    yield calls
    scaling._memo_table.cache_clear()

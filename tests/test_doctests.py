"""Run the executable examples embedded in module docstrings."""

import doctest

import pytest

import repro.allocation.packing
import repro.carbon.intensity
import repro.carbon.power
import repro.core.checks
import repro.core.rng
import repro.core.tables
import repro.core.units
import repro.hardware.embodied
import repro.perf.pond
import repro.reliability.afr
import repro.reliability.maintenance

MODULES = [
    repro.allocation.packing,
    repro.carbon.intensity,
    repro.carbon.power,
    repro.core.checks,
    repro.core.rng,
    repro.core.tables,
    repro.core.units,
    repro.hardware.embodied,
    repro.perf.pond,
    repro.reliability.afr,
    repro.reliability.maintenance,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures"

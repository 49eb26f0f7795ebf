"""Fixtures shared by the GSF tests."""

import collections

import pytest

from repro.gsf import sizing as sizing_module


@pytest.fixture()
def simulate_counter(monkeypatch):
    """Counts the sizing module's replays per (trace, cluster) config."""
    calls = collections.Counter()
    real_replay = sizing_module.replay_on_engine

    def counting_replay(trace, cluster, engine, **kwargs):
        key = (
            trace.name,
            tuple((sku.name, count) for sku, count in cluster.skus),
        )
        calls[key] += 1
        return real_replay(trace, cluster, engine, **kwargs)

    monkeypatch.setattr(sizing_module, "replay_on_engine", counting_replay)
    return calls

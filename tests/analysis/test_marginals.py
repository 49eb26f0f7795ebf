"""Marginals-validation regression tests.

Pins the report schema, its KS distances against the bundled ingested
sample (development-generated goldens), and byte-determinism across
repeated runs and ``--jobs`` settings.
"""

import json

import numpy as np
import pytest

from repro.allocation.ingest import bundled_sample_path, ingest_azure_vm_trace
from repro.allocation.traces import TraceParams, generate_trace
from repro.analysis.marginals import (
    MARGINALS_SCHEMA,
    METRICS,
    fit_trace_params,
    ks_distance,
    marginals_report,
    validate_marginals_report,
)
from repro.core import settings

#: KS distances of the bundled sample vs the default synthetic reference
#: (seed 7).  These are content goldens: they move only when the sample,
#: the generator, or the ingestion schema changes — update alongside
#: the digests in benchmarks/golden_ingest_digests.json.
GOLDEN_KS = {
    "core_size": 0.2324,
    "memory_gb": 0.1559,
    "lifetime_hours": 0.2991,
    "interarrival_hours": 0.1615,
}


@pytest.fixture(scope="module")
def sample_trace():
    trace, _ = ingest_azure_vm_trace(
        bundled_sample_path(), name="azure-sample"
    )
    return trace


@pytest.fixture(scope="module")
def report(sample_trace):
    return marginals_report(sample_trace)


class TestKsDistance:
    def test_identical_samples(self):
        xs = np.arange(100.0)
        assert ks_distance(xs, xs) == 0.0

    def test_disjoint_samples(self):
        assert ks_distance([1.0, 2.0], [10.0, 11.0]) == 1.0

    def test_known_value(self):
        # ECDFs of {0,1} vs {0.5, 1.5} differ by exactly 0.5.
        assert ks_distance([0.0, 1.0], [0.5, 1.5]) == pytest.approx(0.5)

    def test_empty_sample(self):
        assert ks_distance([], [1.0]) == 1.0


class TestReportSchema:
    def test_validates_clean(self, report):
        assert validate_marginals_report(report) == []

    def test_schema_tag(self, report):
        assert report["schema"] == MARGINALS_SCHEMA

    def test_all_metrics_present(self, report):
        assert set(report["metrics"]) == set(METRICS)

    def test_json_round_trip_validates(self, report):
        assert validate_marginals_report(
            json.loads(json.dumps(report))
        ) == []

    def test_validator_catches_damage(self, report):
        broken = json.loads(json.dumps(report))
        broken["schema"] = "bogus/9"
        del broken["metrics"]["core_size"]
        broken["metrics"]["memory_gb"]["ks_distance"] = 1.5
        problems = validate_marginals_report(broken)
        assert len(problems) == 3

    def test_validator_rejects_non_dict(self):
        assert validate_marginals_report([]) == ["report is not a dict"]


class TestPinnedDistances:
    @pytest.mark.parametrize("metric", sorted(GOLDEN_KS))
    def test_ks_distance_pinned(self, report, metric):
        assert report["metrics"][metric]["ks_distance"] == pytest.approx(
            GOLDEN_KS[metric], abs=5e-4
        )

    def test_trace_identity_pinned(self, report, sample_trace):
        assert report["trace"]["digest"] == sample_trace.digest()
        assert report["trace"]["n_vms"] == 420
        assert report["trace"]["start_hours"] == pytest.approx(5.5)


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, sample_trace):
        a = marginals_report(sample_trace)
        b = marginals_report(sample_trace)
        assert json.dumps(a, sort_keys=True) == json.dumps(
            b, sort_keys=True
        )

    def test_independent_of_jobs_setting(self, sample_trace, report):
        with settings.using(jobs=2):
            jobs2 = marginals_report(sample_trace)
        assert json.dumps(jobs2, sort_keys=True) == json.dumps(
            report, sort_keys=True
        )

    def test_no_timestamps_in_report(self, report):
        flat = json.dumps(report).lower()
        for needle in ("timestamp", "time\":", "date"):
            assert needle not in flat


class TestFittedParams:
    def test_fit_constructs_valid_params(self, sample_trace):
        fitted = fit_trace_params(sample_trace)
        assert isinstance(fitted, TraceParams)
        assert sum(fitted.core_size_weights) == pytest.approx(1.0)
        assert sum(fitted.memory_per_core_weights) == pytest.approx(1.0)
        assert sum(fitted.generation_mix) == pytest.approx(1.0)

    def test_fit_matches_window(self, sample_trace):
        fitted = fit_trace_params(sample_trace)
        assert fitted.duration_days * 24 == pytest.approx(
            sample_trace.duration_hours
        )

    def test_fitted_params_generate(self, sample_trace):
        fitted = fit_trace_params(sample_trace)
        twin = generate_trace(seed=11, params=fitted, name="twin")
        assert twin.columns.n > 0
        # The twin's core shapes stay inside the fitted support.
        assert set(np.unique(twin.columns.cores)) <= set(fitted.core_sizes)

    def test_fit_on_synthetic_recovers_mixes(self):
        params = TraceParams(duration_days=4.0, mean_concurrent_vms=300)
        trace = generate_trace(seed=2, params=params)
        fitted = fit_trace_params(trace)
        # Weight recovery is statistical, not exact: within a few points.
        for value, weight in zip(params.core_sizes, params.core_size_weights):
            if value in fitted.core_sizes:
                got = fitted.core_size_weights[
                    fitted.core_sizes.index(value)
                ]
                assert got == pytest.approx(weight, abs=0.05)

    def test_trace_params_fit_delegates(self, sample_trace):
        assert TraceParams.fit(sample_trace) == fit_trace_params(
            sample_trace
        )

    def test_empty_trace_rejected(self):
        from repro.allocation.columnar import ColumnarTrace
        from repro.allocation.traces import VmTrace

        empty = VmTrace(
            name="empty",
            params=TraceParams(),
            columns=ColumnarTrace.from_vms(()),
        )
        with pytest.raises(ValueError, match="empty trace"):
            fit_trace_params(empty)

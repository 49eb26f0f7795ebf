"""Deterministic fault injection: plans, draws, corruption, spec parsing."""

import pytest

from repro.core.errors import ConfigError
from repro.core.faults import (
    FaultPlan,
    InjectedFault,
    corrupt_file,
    parse_fault_spec,
)


class TestFaultPlan:
    def test_kill_by_index_is_bounded_by_attempts(self):
        plan = FaultPlan(kill_indices=(2,), kill_attempts=2)
        assert plan.should_kill(2, 0)
        assert plan.should_kill(2, 1)
        assert not plan.should_kill(2, 2)
        assert not plan.should_kill(1, 0)

    def test_probabilistic_kills_are_deterministic(self):
        plan = FaultPlan(kill_probability=0.5, seed=7)
        decisions = [plan.should_kill(i, 0) for i in range(64)]
        again = [plan.should_kill(i, 0) for i in range(64)]
        assert decisions == again
        assert any(decisions) and not all(decisions)

    def test_probabilistic_kills_depend_on_seed(self):
        a = [FaultPlan(kill_probability=0.5, seed=1).should_kill(i, 0)
             for i in range(64)]
        b = [FaultPlan(kill_probability=0.5, seed=2).should_kill(i, 0)
             for i in range(64)]
        assert a != b

    def test_apply_raises_injected_fault_in_parent(self):
        # Hard mode must degrade to an exception in the parent process:
        # a serial run may never kill the interpreter driving it.
        plan = FaultPlan(kill_indices=(0,), kill_mode="hard")
        with pytest.raises(InjectedFault):
            plan.apply(0, 0)
        plan.apply(1, 0)  # unselected index: no-op

    def test_latency_selection(self):
        plan = FaultPlan(latency_s=0.001, latency_indices=(1,))
        assert plan.should_delay(1)
        assert not plan.should_delay(0)
        everyone = FaultPlan(latency_s=0.001)
        assert everyone.should_delay(0) and everyone.should_delay(99)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan(kill_mode="meteor")
        with pytest.raises(ConfigError):
            FaultPlan(kill_probability=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(latency_s=-1.0)

    @pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf"), -1])
    def test_non_count_kill_attempts_rejected(self, bad):
        with pytest.raises(ConfigError, match="kill_attempts must be"):
            FaultPlan(kill_attempts=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_latency_rejected(self, bad):
        with pytest.raises(ConfigError, match="latency_s must be finite"):
            FaultPlan(latency_s=bad)


class TestCorruptFile:
    def test_truncate_halves_the_file(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(bytes(range(100)))
        corrupt_file(path, mode="truncate")
        assert path.read_bytes() == bytes(range(50))

    def test_garble_changes_bytes_but_keeps_length(self, tmp_path):
        path = tmp_path / "f.bin"
        original = bytes(range(256))
        path.write_bytes(original)
        corrupt_file(path, mode="garble", seed=3)
        damaged = path.read_bytes()
        assert len(damaged) == len(original)
        assert damaged != original

    def test_garble_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for path in (a, b):
            path.write_bytes(bytes(range(256)))
            corrupt_file(path, mode="garble", seed=3)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_mode_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"data")
        with pytest.raises(ConfigError):
            corrupt_file(path, mode="vaporize")


class TestParseFaultSpec:
    def test_full_spec(self):
        plan = parse_fault_spec(
            "kill=0;3;7 p=0.1 attempts=2 mode=hard latency=0.01 seed=7"
        )
        assert plan == FaultPlan(
            kill_indices=(0, 3, 7),
            kill_probability=0.1,
            kill_attempts=2,
            kill_mode="hard",
            latency_s=0.01,
            seed=7,
        )

    def test_comma_separators_and_defaults(self):
        plan = parse_fault_spec("kill=1,seed=3")
        assert plan.kill_indices == (1,)
        assert plan.seed == 3
        assert plan.kill_mode == "exception"

    def test_bad_specs_rejected(self):
        for spec in ("kill", "banana=1", "p=lots", "mode=meteor"):
            with pytest.raises(ConfigError):
                parse_fault_spec(spec)

"""Deterministic fault injection for the resilience layer.

Production failure modes — a worker process dying mid-task, a store file
rotting on disk, a task stalling — are rare and nondeterministic, which
makes "does the suite survive them?" untestable by waiting.  This module
makes them *injectable and reproducible*: a :class:`FaultPlan` decides,
as a pure function of ``(task index, attempt)`` plus a seed, whether a
given execution should be killed, delayed, or left alone, so a
fault-injected run is exactly as deterministic as a clean one and the
differential tests can assert bit-identical outcomes.

Three fault families:

- **worker kills** — by explicit task index or with a seeded
  probability, either as a raised :class:`InjectedFault` (``exception``
  mode, survives any executor) or as a hard ``os._exit`` (``hard`` mode,
  killing the worker process itself — only meaningful under a process
  pool, where the parent sees ``BrokenProcessPool``).
- **latency** — a fixed sleep before the task body, for exercising
  per-task timeouts.
- **file corruption** — :func:`corrupt_file` deterministically truncates
  or garbles an artifact on disk, for exercising the store quarantine.

Faults only fire where the resilience layer explicitly consults the
plan; a plan is inert data and never installs itself globally.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from .checks import check_count, check_finite
from .errors import ConfigError, SimulationError

#: Exit code used by hard kills, so a dead worker is attributable in CI logs.
HARD_KILL_EXIT_CODE = 86

#: Recognised kill modes.
KILL_MODES = ("exception", "hard")


class InjectedFault(SimulationError):
    """A deliberately injected task failure (exception-mode kill)."""


def _unit_draw(seed: int, index: int, attempt: int, salt: str) -> float:
    """A deterministic uniform draw in [0, 1) for one (task, attempt)."""
    digest = hashlib.sha256(
        f"{salt}:{seed}:{index}:{attempt}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of injected faults.

    Attributes:
        kill_indices: Task indices whose first ``kill_attempts``
            executions are killed unconditionally.
        kill_probability: Chance of killing any (task, attempt) with
            ``attempt < kill_attempts``, drawn deterministically from
            ``seed``.
        kill_attempts: How many leading attempts of a selected task are
            killed; retries past this succeed, so a bounded retry policy
            always recovers.
        kill_mode: ``"exception"`` raises :class:`InjectedFault` inside
            the task; ``"hard"`` terminates the worker process with
            ``os._exit`` (process pools only).
        latency_s: Sleep injected before each selected task body.
        latency_indices: Task indices receiving the latency (``None``
            means every task).
        seed: Seed of the deterministic probability draws.
    """

    kill_indices: Tuple[int, ...] = ()
    kill_probability: float = 0.0
    kill_attempts: int = 1
    kill_mode: str = "exception"
    latency_s: float = 0.0
    latency_indices: Optional[Tuple[int, ...]] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kill_mode not in KILL_MODES:
            raise ConfigError(
                f"kill_mode must be one of {KILL_MODES}, "
                f"got {self.kill_mode!r}"
            )
        if not 0.0 <= self.kill_probability <= 1.0:
            raise ConfigError(
                f"kill_probability must be in [0, 1], "
                f"got {self.kill_probability}"
            )
        check_count(self.kill_attempts, "kill_attempts")
        check_finite(self.latency_s, "latency_s", at_least=0)

    # -- decisions (pure) ------------------------------------------------------

    def should_kill(self, index: int, attempt: int) -> bool:
        """Whether execution ``attempt`` of task ``index`` is killed."""
        if attempt >= self.kill_attempts:
            return False
        if index in self.kill_indices:
            return True
        if self.kill_probability > 0.0:
            draw = _unit_draw(self.seed, index, attempt, "kill")
            return draw < self.kill_probability
        return False

    def should_delay(self, index: int) -> bool:
        """Whether task ``index`` receives the injected latency."""
        if self.latency_s <= 0.0:
            return False
        return self.latency_indices is None or index in self.latency_indices

    # -- application (in the executing process) --------------------------------

    def apply(self, index: int, attempt: int) -> None:
        """Fire this plan's faults for one task execution, if any.

        Called by the resilience layer at the top of the task body, in
        whichever process runs the task.  Hard kills fall back to
        exception mode when the task runs in the parent process (a
        serial run must not kill the interpreter driving it).
        """
        if self.should_delay(index):
            time.sleep(self.latency_s)
        if self.should_kill(index, attempt):
            if self.kill_mode == "hard" and not _in_parent_process():
                os._exit(HARD_KILL_EXIT_CODE)
            raise InjectedFault(
                f"injected kill: task {index}, attempt {attempt}"
            )


#: PID of the process that imported this module first (the experiment
#: driver); worker processes inherit the value and compare differently.
_PARENT_PID = os.getpid()


def _in_parent_process() -> bool:
    return os.getpid() == _PARENT_PID


# -- file corruption -----------------------------------------------------------


def corrupt_file(path, mode: str = "truncate", seed: int = 0) -> None:
    """Deterministically damage a file on disk.

    ``truncate`` keeps the first half of the file (a torn write);
    ``garble`` XOR-flips a seeded selection of bytes in place (bit rot
    that leaves the length intact — the case only content verification
    catches).  Raises :class:`ConfigError` for unknown modes.
    """
    data = bytearray(Path(path).read_bytes())
    if mode == "truncate":
        damaged = bytes(data[: len(data) // 2])
    elif mode == "garble":
        if not data:
            damaged = b""
        else:
            mask = hashlib.sha256(f"garble:{seed}".encode()).digest()
            step = max(1, len(data) // 64)
            for offset, i in enumerate(range(0, len(data), step)):
                data[i] ^= mask[offset % len(mask)] | 0x01
            damaged = bytes(data)
    else:
        raise ConfigError(
            f"unknown corruption mode {mode!r}; "
            "choose 'truncate' or 'garble'"
        )
    with open(path, "wb") as fh:
        fh.write(damaged)


# -- CLI spec parsing ----------------------------------------------------------


def parse_fault_spec(spec: str) -> FaultPlan:
    """Build a :class:`FaultPlan` from a CLI spec string.

    The spec is comma/space-separated ``key=value`` pairs::

        kill=0;3;7 p=0.1 attempts=2 mode=hard latency=0.01 seed=7

    ``kill`` takes semicolon-separated task indices.  Unknown keys and
    malformed values raise :class:`ConfigError`.
    """
    kwargs: dict = {}
    tokens = [t for chunk in spec.split(",") for t in chunk.split()]
    for token in tokens:
        if not token:
            continue
        if "=" not in token:
            raise ConfigError(
                f"fault spec token {token!r} is not key=value"
            )
        key, value = token.split("=", 1)
        try:
            if key == "kill":
                kwargs["kill_indices"] = tuple(
                    int(i) for i in value.split(";") if i
                )
            elif key in ("p", "kill_probability"):
                kwargs["kill_probability"] = float(value)
            elif key in ("attempts", "kill_attempts"):
                kwargs["kill_attempts"] = int(value)
            elif key in ("mode", "kill_mode"):
                kwargs["kill_mode"] = value
            elif key in ("latency", "latency_s"):
                kwargs["latency_s"] = float(value)
            elif key == "seed":
                kwargs["seed"] = int(value)
            else:
                raise ConfigError(f"unknown fault spec key {key!r}")
        except ValueError:
            raise ConfigError(
                f"fault spec {key}={value!r}: bad value"
            ) from None
    return FaultPlan(**kwargs)


__all__ = [
    "HARD_KILL_EXIT_CODE",
    "KILL_MODES",
    "FaultPlan",
    "InjectedFault",
    "corrupt_file",
    "parse_fault_spec",
]

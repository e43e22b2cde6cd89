"""Timing parameters of the behavioural VPU model.

Structural parameters (queue depths) come straight from Table II; the lane
count belongs to the machine (:attr:`repro.core.config.MachineConfig.lanes`).
The two *dead-time* constants are the *calibrated* behavioural knobs: they
lump together the per-instruction overheads a cycle-accurate pipeline
exposes implicitly (issue handshake, VRF address setup, pipeline drain
between dependent groups).  They were tuned once so the baseline
anchor reproduces the paper's headline — axpy at AVA X8 speeds up ~2× over
NATIVE X1 (paper: 2.03×) — and are frozen; every experiment uses the same
values for every machine family, so comparisons stay honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List

from repro.registry import PresetRegistry


@dataclass(frozen=True)
class TimingParams:
    """Knobs of the VPU timing model (cycles are 1 GHz VPU cycles)."""

    #: Per-instruction startup overhead of the arithmetic pipeline.
    arith_dead_time: int = 3
    #: Per-instruction startup overhead of the memory unit (address setup).
    mem_dead_time: int = 3
    #: Scalar-core -> VPU dispatch queue depth.
    dispatch_queue_depth: int = 8
    #: Pre-issue queue depth (first stage of the two-stage issue unit).
    pre_issue_depth: int = 4
    #: Arithmetic issue queue depth (Table II: 32 entries).
    arith_queue_depth: int = 32
    #: Memory issue queue depth (Table II: 32 entries).
    mem_queue_depth: int = 32
    #: Reorder-buffer entries.
    rob_entries: int = 64
    #: Instructions committed per cycle.
    commit_width: int = 2
    #: Scalar-core clock / VPU clock (2 GHz / 1 GHz, Table II).
    scalar_clock_ratio: float = 2.0
    #: Scalar-core cycles to hand one vector instruction to the VPU.
    dispatch_scalar_cycles: float = 1.0
    #: Chaining: a consumer may issue this many cycles after its producer
    #: issued (element streams overlap; latencies propagate through the
    #: first-ready / done timestamps instead of blocking issue).
    chain_issue_delay: int = 1
    #: Swap operations the pre-issue stage can insert into the memory queue
    #: per cycle (swap generation is combinational with source mapping).
    preissue_swap_budget: int = 2

    def __post_init__(self) -> None:
        if self.scalar_clock_ratio <= 0:
            raise ValueError("scalar clock ratio must be positive")
        for knob in ("dispatch_queue_depth", "pre_issue_depth",
                     "arith_queue_depth", "mem_queue_depth", "rob_entries",
                     "commit_width", "preissue_swap_budget"):
            if getattr(self, knob) < 1:
                raise ValueError(f"{knob} must be at least 1")
        if self.arith_dead_time < 0 or self.mem_dead_time < 0:
            raise ValueError("dead times cannot be negative")

    def scalar_to_vpu(self, scalar_cycles: float) -> float:
        """Convert 2 GHz scalar-core cycles into 1 GHz VPU cycles."""
        return scalar_cycles / self.scalar_clock_ratio


def arith_beats(vl: int, beats_per_element: float, lanes: int) -> int:
    """Cycles ``lanes`` arithmetic lanes are busy with a ``vl``-element op."""
    return max(1, math.ceil(vl / lanes * beats_per_element))


#: Default parameter set shared by every experiment.
DEFAULT_TIMING = TimingParams()


# ---------------------------------------------------------------------------
# timing registry: named presets for the scenario layer's timing axis
# ---------------------------------------------------------------------------
_TIMING_REGISTRY: PresetRegistry[TimingParams] = \
    PresetRegistry("timing preset")


def register_timing(name: str, factory: Callable[[], TimingParams]) -> None:
    """Add a named timing preset (the ``register_workload`` pattern).

    Re-registering the same factory is a no-op; claiming a name another
    factory already holds raises ``ValueError``.
    """
    _TIMING_REGISTRY.register(name, factory)


def get_timing(name: str) -> TimingParams:
    """Instantiate a timing preset by its registered name."""
    return _TIMING_REGISTRY.get(name)


def timing_names() -> List[str]:
    """Every registered timing-preset name, sorted."""
    return _TIMING_REGISTRY.names()


#: Builtin presets: the calibrated default plus the swap-budget and
#: queue-depth departures the sensitivity study sweeps.
register_timing("default", TimingParams)
register_timing("single-swap",
                lambda: replace(DEFAULT_TIMING, preissue_swap_budget=1))
register_timing("wide-swap",
                lambda: replace(DEFAULT_TIMING, preissue_swap_budget=4))
register_timing("deep-queues",
                lambda: replace(DEFAULT_TIMING, arith_queue_depth=64,
                                mem_queue_depth=64, pre_issue_depth=8))
register_timing("shallow-queues",
                lambda: replace(DEFAULT_TIMING, arith_queue_depth=8,
                                mem_queue_depth=8, pre_issue_depth=2))

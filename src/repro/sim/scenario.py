"""The declarative scenario layer: one frozen bundle per machine-side axis.

A :class:`Scenario` pins everything about the simulated machine that is not
the workload: the machine configuration (Tables I–III), the VPU timing
parameters, the memory hierarchy, and the simulator policy knobs.  The
workload axis was opened by the workload registry; this module opens the
remaining axes the same way — every component resolves from a named,
registry-backed preset:

* machine — :func:`repro.core.config.get_machine` (``native-x1`` ..
  ``ava-x8``, ``rg-lmul1`` .. ``rg-lmul8``, ``baseline``);
* memory — :func:`repro.memory.presets.get_memory_system` (``table2``,
  ``half-l2``, ``slow-l2``, ``slow-dram``, ``fast-dram``);
* timing — :func:`repro.vpu.params.get_timing` (``default``,
  ``single-swap``, ``wide-swap``, ``deep-queues``, ``shallow-queues``);
* policy — the :class:`CellPolicy` knobs the ablations sweep.

Sweep spec files name a preset (plus field overrides) per axis, and the
sweep parser resolves them through :func:`build_scenario`.  A scenario
serialises to plain JSON with :meth:`Scenario.to_dict`.  The result cache
hashes that form of :meth:`Scenario.simulated` into every cell key: every
field is keyed, except that a single-level machine's swap-only knobs are
keyed at their defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Optional, Union

from repro.core.config import MachineConfig, get_machine
from repro.core.swap import VictimPolicy
from repro.memory.hierarchy import MemorySystemConfig
from repro.memory.presets import get_memory_system
from repro.vpu.params import DEFAULT_TIMING, TimingParams, get_timing


@dataclass(frozen=True)
class CellPolicy:
    """The simulator policy knobs the ablations sweep.

    Both drive the Swap Mechanism, so only a two-level machine reads them:
    ``victim_policy`` picks the VVR a full P-VRF evicts, and
    ``aggressive_reclamation`` frees the P-reg of a dead value (RAC == 0)
    early.  A single-level machine never reclaims, whatever the flag says.
    Both are keyed as given on a two-level machine and at their defaults
    on a single-level one (:meth:`Scenario.simulated`).
    """

    victim_policy: VictimPolicy = VictimPolicy.RAC_MIN
    aggressive_reclamation: bool = True

    def to_key(self) -> dict:
        return {"victim_policy": self.victim_policy.value,
                "aggressive_reclamation": self.aggressive_reclamation}

    # ``to_key`` predates the scenario layer and is its exact JSON form.
    to_dict = to_key


#: The swap-only knobs' defaults, which :meth:`Scenario.simulated` keys a
#: single-level machine at.
_DEFAULT_SWAP_BUDGET = DEFAULT_TIMING.preissue_swap_budget
_DEFAULT_POLICY = CellPolicy()


def _scalars_to_dict(obj: Any) -> dict:
    """Flatten any scalar-field dataclass (config axes) for the cache key."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _machine_to_dict(config: MachineConfig) -> dict:
    data = _scalars_to_dict(config)
    data["mode"] = config.mode.value
    return data


def _memory_to_dict(config: MemorySystemConfig) -> dict:
    return {"l2": _scalars_to_dict(config.l2),
            "dram": _scalars_to_dict(config.dram)}


@dataclass(frozen=True)
class Scenario:
    """Machine config + timing + memory system + policy, as one value.

    Frozen and hashable: two scenarios built from the same presets compare
    equal, key the same memo entries, and hash to the same result-cache
    key.  The default scenario (any machine, everything else defaulted)
    reproduces the paper's platform exactly.
    """

    machine: MachineConfig
    timing: TimingParams = DEFAULT_TIMING
    memory: MemorySystemConfig = MemorySystemConfig()
    policy: CellPolicy = CellPolicy()

    def simulated(self) -> "Scenario":
        """The scenario as the simulator's models read it: the form the
        result cache keys.

        Only a two-level VRF has a Swap Mechanism.  A single-level machine
        (NATIVE, RG, AVA X1: ``machine.two_level`` is false) holds every
        VVR in its P-VRF, so a free P-reg always exists: no swap is ever
        generated and no register is reclaimed early.  Nothing reads
        ``timing.preissue_swap_budget``, ``policy.victim_policy`` or
        ``policy.aggressive_reclamation`` there, so on such a machine all
        three are reset to their defaults, and scenarios differing only
        there compare equal here.  Every other field is kept.  Returns
        ``self`` when the machine is two-level or the three knobs already
        hold their defaults.
        """
        timing = self.timing
        if self.machine.two_level or (
                timing.preissue_swap_budget == _DEFAULT_SWAP_BUDGET
                and self.policy == _DEFAULT_POLICY):
            return self
        return replace(
            self,
            timing=replace(timing, preissue_swap_budget=_DEFAULT_SWAP_BUDGET),
            policy=_DEFAULT_POLICY)

    def to_dict(self) -> dict:
        """Plain-JSON form: what the result cache hashes."""
        return {
            "machine": _machine_to_dict(self.machine),
            "timing": _scalars_to_dict(self.timing),
            "memory": _memory_to_dict(self.memory),
            "policy": self.policy.to_dict(),
        }


def build_scenario(
        machine: Union[str, MachineConfig],
        timing: Union[str, TimingParams, None] = None,
        memory: Union[str, MemorySystemConfig, None] = None,
        policy: Union[str, CellPolicy, None] = None) -> Scenario:
    """Resolve per-axis preset names (or instances) into a Scenario.

    Strings go through the axis registries (for ``policy``, a
    :class:`~repro.core.swap.VictimPolicy` name like ``"fifo"``); ``None``
    means the paper's default for that axis.  This is the single
    resolution point the sweep spec parser, every engine
    :class:`~repro.experiments.engine.SweepSpec` grid and user code share
    — a wrong-typed axis fails here, not deep inside the pipeline.
    """
    if isinstance(machine, str):
        machine = get_machine(machine)
    if isinstance(timing, str):
        timing = get_timing(timing)
    if isinstance(memory, str):
        memory = get_memory_system(memory)
    if isinstance(policy, str):
        policy = CellPolicy(victim_policy=VictimPolicy(policy))
    for axis, value, expected in (("machine", machine, MachineConfig),
                                  ("timing", timing, TimingParams),
                                  ("memory", memory, MemorySystemConfig),
                                  ("policy", policy, CellPolicy)):
        if value is not None and not isinstance(value, expected):
            raise TypeError(
                f"{axis} must be a preset name or a "
                f"{expected.__name__}, got {type(value).__name__}")
    return Scenario(
        machine=machine,
        timing=timing if timing is not None else DEFAULT_TIMING,
        memory=memory if memory is not None else MemorySystemConfig(),
        policy=policy if policy is not None else CellPolicy(),
    )

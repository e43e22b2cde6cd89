"""Named memory-hierarchy presets: the scenario layer's memory axis.

``table2`` is the paper's platform (the :class:`MemorySystemConfig`
defaults); the other presets are single-knob departures the sensitivity
study sweeps — a slower/faster DRAM, a halved or slower L2 — so paper-style
"what if the memory system were worse?" questions become registry lookups
instead of hand-built config objects.

The registry mirrors :func:`repro.workloads.register_workload`: factories
are registered under kebab-case names, lookups instantiate fresh frozen
configs, and name collisions raise instead of silently shadowing the
paper's platform.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List

from repro.memory.dram import DramConfig
from repro.memory.hierarchy import MemorySystemConfig
from repro.registry import PresetRegistry

_MEMORY_REGISTRY: PresetRegistry[MemorySystemConfig] = \
    PresetRegistry("memory preset")


def register_memory_system(name: str,
                           factory: Callable[[], MemorySystemConfig]
                           ) -> None:
    """Add a named memory-hierarchy preset.

    Re-registering the same factory is a no-op; claiming a name another
    factory already holds raises ``ValueError``.
    """
    _MEMORY_REGISTRY.register(name, factory)


def get_memory_system(name: str) -> MemorySystemConfig:
    """Instantiate a memory-hierarchy preset by its registered name."""
    return _MEMORY_REGISTRY.get(name)


def memory_system_names() -> List[str]:
    """Every registered memory-preset name, sorted."""
    return _MEMORY_REGISTRY.names()


def _table2() -> MemorySystemConfig:
    return MemorySystemConfig()


def _half_l2() -> MemorySystemConfig:
    base = MemorySystemConfig()
    return replace(base, l2=replace(base.l2, size_bytes=base.l2.size_bytes
                                    // 2))


def _slow_l2() -> MemorySystemConfig:
    base = MemorySystemConfig()
    return replace(base, l2=replace(base.l2, latency=2 * base.l2.latency))


def _slow_dram() -> MemorySystemConfig:
    base = MemorySystemConfig()
    return replace(base, dram=DramConfig(latency=2 * base.dram.latency,
                                         line_transfer=base.dram
                                         .line_transfer))


def _fast_dram() -> MemorySystemConfig:
    base = MemorySystemConfig()
    return replace(base, dram=DramConfig(latency=base.dram.latency // 2,
                                         line_transfer=base.dram
                                         .line_transfer))


#: The builtin presets, under their canonical names.
register_memory_system("table2", _table2)
register_memory_system("half-l2", _half_l2)
register_memory_system("slow-l2", _slow_l2)
register_memory_system("slow-dram", _slow_dram)
register_memory_system("fast-dram", _fast_dram)

"""Shared preset-registry helper for the scenario layer's machine axes.

The machine, memory-system and timing registries all follow the
``register_workload`` pattern: kebab-case names map to zero-argument
factories, lookups instantiate fresh frozen configs, re-registering the
same factory is a no-op, and claiming a name another factory already
holds raises so plugins cannot silently shadow the paper's presets.
This class is that pattern, once; each axis module wraps one instance in
its public ``register_*``/``get_*`` functions.

(The workload registry keeps its own implementation: it registers
classes through a decorator, not factories.)
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, List, TypeVar

T = TypeVar("T")


class PresetRegistry(Generic[T]):
    """Name -> zero-argument-factory map with collision protection."""

    def __init__(self, kind: str) -> None:
        self.kind = kind  # noun used in error messages, e.g. "machine preset"
        self._factories: Dict[str, Callable[[], T]] = {}

    def register(self, name: str, factory: Callable[[], T]) -> None:
        existing = self._factories.get(name)
        if existing is not None and existing is not factory:
            raise ValueError(
                f"{self.kind} {name!r} is already registered")
        self._factories[name] = factory

    def get(self, name: str) -> T:
        factory = self._factories.get(name)
        if factory is None:
            raise KeyError(
                f"unknown {self.kind} {name!r}; known: "
                f"{sorted(self._factories)}")
        return factory()

    def names(self) -> List[str]:
        return sorted(self._factories)

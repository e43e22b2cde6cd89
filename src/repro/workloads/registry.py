"""Workload registry: an open, pluggable suite with a frozen Table-IV view.

The suite is no longer a hard-coded tuple.  Workload classes register
themselves with the :func:`register_workload` decorator::

    from repro.workloads import Workload, register_workload

    @register_workload
    class MyKernel(Workload):
        name = "mykernel"
        ...

and immediately flow through :func:`get_workload`, the experiment engine's
``SweepSpec`` grids, the result cache (keys hash the compiled program, so a
third-party kernel can never collide with a builtin one) and the CLI's
``--workloads`` selector.

Third-party packages can also advertise workloads without importing this
package first, via the ``repro.workloads`` entry-point group::

    [project.entry-points."repro.workloads"]
    mykernel = "mypkg.kernels:MyKernel"

Entry points are loaded lazily by :func:`discover_workloads` the first time
a name lookup misses the in-process registry.

Two views of the suite are exported:

* :data:`WORKLOAD_NAMES` — the paper's Table IV, in paper order.  This list
  is frozen: every figure regenerated over it stays byte-identical no matter
  how many extra kernels are registered.
* :data:`ALL_WORKLOAD_NAMES` — Table IV plus the extended RiVEC-style
  kernels (:data:`EXTENDED_WORKLOAD_NAMES`), the ``--extended`` grid.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, List, Optional, Type, Union, overload

from repro.workloads.base import Workload

#: Entry-point group third-party packages use to advertise workloads.
ENTRY_POINT_GROUP = "repro.workloads"

_REGISTRY: Dict[str, Type[Workload]] = {}
_DISCOVERED = False


@overload
def register_workload(cls: Type[Workload]) -> Type[Workload]: ...


@overload
def register_workload(cls: None = ..., *, name: Optional[str] = ...
                      ) -> Callable[[Type[Workload]], Type[Workload]]: ...


def register_workload(cls: Optional[Type[Workload]] = None, *,
                      name: Optional[str] = None
                      ) -> Union[Type[Workload],
                                 Callable[[Type[Workload]], Type[Workload]]]:
    """Class decorator adding a :class:`Workload` subclass to the registry.

    Usable bare (``@register_workload``, the class's ``name`` attribute is
    the registry key) or with an explicit key
    (``@register_workload(name="alias")``).  Re-registering the *same* class
    is a no-op; claiming a name another class already holds raises
    ``ValueError`` so plugins cannot silently shadow the paper's suite.
    """
    def wrap(klass: Type[Workload]) -> Type[Workload]:
        if not (isinstance(klass, type) and issubclass(klass, Workload)):
            raise TypeError(
                f"register_workload expects a Workload subclass, got "
                f"{klass!r}")
        key = name or klass.name
        if not key:
            raise ValueError(
                f"{klass.__qualname__} has no 'name' attribute and no "
                f"explicit name was given")
        existing = _REGISTRY.get(key)
        if existing is not None and existing is not klass:
            raise ValueError(
                f"workload name {key!r} is already registered by "
                f"{existing.__module__}.{existing.__qualname__}")
        _REGISTRY[key] = klass
        return klass

    return wrap(cls) if cls is not None else wrap


def unregister_workload(name: str) -> bool:
    """Remove ``name`` from the registry (plugin/test cleanup hook)."""
    return _REGISTRY.pop(name, None) is not None


def discover_workloads(group: str = ENTRY_POINT_GROUP, *,
                       force: bool = False) -> List[str]:
    """Load workloads advertised through entry points; returns new names.

    Runs at most once per process (``force=True`` re-scans).  Broken or
    colliding entry points are skipped rather than allowed to break the
    builtin suite.
    """
    global _DISCOVERED
    if _DISCOVERED and not force:
        return []
    _DISCOVERED = True
    try:
        from importlib import metadata
    except ImportError:  # pragma: no cover - importlib.metadata is 3.8+
        return []
    try:
        entry_points = metadata.entry_points()
        if hasattr(entry_points, "select"):  # Python 3.10+
            selected = entry_points.select(group=group)
        else:  # pragma: no cover - legacy dict API
            selected = entry_points.get(group, ())
    except Exception as exc:  # noqa: BLE001 — malformed dist metadata raises arbitrarily; discovery is best-effort
        warnings.warn(
            f"workload entry-point discovery failed "
            f"({type(exc).__name__}: {exc}); third-party workloads "
            f"unavailable this process", RuntimeWarning, stacklevel=2)
        return []
    loaded: List[str] = []
    for entry in selected:
        try:
            obj = entry.load()
            register_workload(obj, name=entry.name)
        except Exception as exc:  # noqa: BLE001 — entry.load() runs arbitrary plugin import code; one broken plugin must not sink the suite
            warnings.warn(
                f"skipping workload entry point {entry.name!r} "
                f"({getattr(entry, 'value', '?')}): "
                f"{type(exc).__name__}: {exc}",
                RuntimeWarning, stacklevel=2)
            continue
        loaded.append(entry.name)
    return loaded


#: Paper order (Table IV).  Frozen: figures rendered over this view are
#: byte-identical regardless of what else gets registered.
WORKLOAD_NAMES: List[str] = [
    "axpy", "blackscholes", "lavamd", "particlefilter", "somier", "swaptions",
]

#: The extended RiVEC-style kernels grown on top of Table IV, in the order
#: they joined the suite.
EXTENDED_WORKLOAD_NAMES: List[str] = [
    "jacobi2d", "pathfinder", "spmv", "streamcluster",
]

#: The full builtin suite: Table IV first, extended kernels after.
ALL_WORKLOAD_NAMES: List[str] = WORKLOAD_NAMES + EXTENDED_WORKLOAD_NAMES


def registered_names() -> List[str]:
    """Every name the registry currently resolves, sorted."""
    discover_workloads()
    return sorted(_REGISTRY)


def get_workload(name: str) -> Workload:
    """Instantiate a workload by its registered name."""
    cls = _REGISTRY.get(name)
    if cls is None:
        discover_workloads()
        cls = _REGISTRY.get(name)
    if cls is None:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(_REGISTRY)}")
    return cls()


def all_workloads() -> List[Workload]:
    """The six Table-IV applications, in the paper's order."""
    return [get_workload(name) for name in WORKLOAD_NAMES]


def select_workloads(selector: Optional[str] = None, *,
                     extended: bool = False) -> List[str]:
    """Resolve a CLI-style workload selection to a list of names.

    ``None``/``""``/``"all"`` mean the Table-IV six (the ten-kernel builtin
    suite with ``extended=True``); ``"extended"`` always means the ten;
    anything else is a comma-separated list of registered names (a single
    name is the one-element list; repeats are dropped, keeping
    first-occurrence order).  Unknown names raise ``KeyError``.
    """
    if selector in (None, "", "all"):
        return list(ALL_WORKLOAD_NAMES if extended else WORKLOAD_NAMES)
    if selector == "extended":
        return list(ALL_WORKLOAD_NAMES)
    assert selector is not None
    names = list(dict.fromkeys(part.strip() for part in selector.split(",")
                               if part.strip()))
    if not names:
        raise KeyError("empty workload selection")
    known = set(registered_names())
    unknown = [n for n in names if n not in known]
    if unknown:
        raise KeyError(
            f"unknown workload {unknown[0]!r}; known: {sorted(known)}")
    return names

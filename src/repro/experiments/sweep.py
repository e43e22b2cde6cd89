"""JSON sweep-spec files: declarative multi-axis grids for ``repro sweep``.

A spec file names presets (or inline overrides) for every scenario axis and
expands into one labelled grid of engine
:class:`~repro.experiments.engine.Cell`\\ s::

    {
      "name": "l2-sensitivity",
      "workloads": ["axpy", "blackscholes"],
      "machines": ["native-x8", "ava-x8"],
      "memory": ["table2", "slow-dram", {"l2": {"latency": 24}}],
      "timing": ["default", {"preissue_swap_budget": 1}],
      "policies": [{"victim_policy": "fifo"}]
    }

Axis entries are either registry names (machine / memory / timing presets)
or inline-override objects.  An override object may carry a ``"base"`` key
naming the preset to start from (default: the paper's platform); every
other key is a field override — nested per section for the memory axis
(``l1i`` / ``l1d`` / ``l2`` / ``dram`` / ``vector_interface_bytes``), flat
:class:`~repro.vpu.params.TimingParams` fields for the timing axis, flat
:class:`~repro.core.config.MachineConfig` fields for the machine axis.
Policies take ``victim_policy`` (name) and ``aggressive_reclamation``.

Everything validates at parse time — an unknown preset, field or section
raises before any cell simulates — and every parsed entry keeps a stable
display label so the rendered grid stays readable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (Dict, List, Optional, Sequence, Tuple, TypeVar, Union,
                    get_type_hints)

from repro.core.config import get_machine
from repro.core.swap import VictimPolicy
from repro.experiments.engine import (Cell, CellExecutor, CellPolicy,
                                      CellResult)
from repro.experiments.rendering import render_table
from repro.memory.presets import get_memory_system
from repro.vpu.params import TimingParams, get_timing
from repro.workloads.registry import registered_names

#: Sections of a memory-axis override object (everything else is a scalar
#: field of MemorySystemConfig).
_MEMORY_SECTIONS = ("l1i", "l1d", "l2", "dram")

_T = TypeVar("_T")


@dataclass(frozen=True)
class AxisEntry:
    """One parsed point of one axis: a display label plus the resolved value."""

    label: str
    value: object


def _override_label(base: str, overrides: Dict[str, object]) -> str:
    if not overrides:
        return base
    flat = []
    for key, value in sorted(overrides.items()):
        if isinstance(value, dict):
            flat.extend(f"{key}.{k}={v}" for k, v in sorted(value.items()))
        else:
            flat.append(f"{key}={value}")
    return f"{base}[{','.join(flat)}]"


def _override(base: _T, overrides: Dict[str, object], what: str) -> _T:
    """``replace(base, **overrides)`` with every value type-checked first.

    A value must be an instance of its field's type; an int also fits a
    float field, but a bool fits only a bool field (JSON ``true`` is a
    Python int).  A misfit or an unknown field raises ValueError here,
    at parse time, instead of simulating a wrong machine or failing
    mid-grid.
    """
    hints = get_type_hints(type(base))
    for field, value in overrides.items():
        want = hints.get(field)
        if want is None:
            continue  # unknown field: replace() rejects it below
        fits = isinstance(value, (int, float) if want is float else want)
        if not fits or (isinstance(value, bool) and want is not bool):
            raise ValueError(f"{what} field {field!r} must be "
                             f"{want.__name__}, got {value!r}")
    try:
        return replace(base, **overrides)
    except TypeError as exc:
        raise ValueError(f"bad {what} override {overrides!r}: {exc}") from exc


def _parse_machine(entry: Union[str, dict]) -> AxisEntry:
    if isinstance(entry, str):
        return AxisEntry(entry, get_machine(entry))
    if not isinstance(entry, dict):
        raise ValueError(f"machine entry must be a name or an object, "
                         f"got {entry!r}")
    spec = dict(entry)
    base = spec.pop("base", "baseline")
    config = _override(get_machine(base), spec, "machine")
    return AxisEntry(_override_label(base, spec), config)


def _parse_memory(entry: Union[str, dict]) -> AxisEntry:
    if isinstance(entry, str):
        return AxisEntry(entry, get_memory_system(entry))
    if not isinstance(entry, dict):
        raise ValueError(f"memory entry must be a name or an object, "
                         f"got {entry!r}")
    spec = dict(entry)
    base = spec.pop("base", "table2")
    config = get_memory_system(base)
    overrides: Dict[str, object] = {}
    for section, fields in spec.items():
        if section in _MEMORY_SECTIONS:
            if not isinstance(fields, dict):
                raise ValueError(
                    f"memory section {section!r} must be an object of "
                    f"field overrides, got {fields!r}")
            overrides[section] = _override(getattr(config, section),
                                           fields, section)
        elif section == "vector_interface_bytes":
            overrides[section] = fields
        else:
            raise ValueError(
                f"unknown memory section {section!r}; known: "
                f"{_MEMORY_SECTIONS + ('vector_interface_bytes',)}")
    config = _override(config, overrides, "memory")
    return AxisEntry(_override_label(base, spec), config)


def _parse_timing(entry: Union[str, dict]) -> AxisEntry:
    if isinstance(entry, str):
        return AxisEntry(entry, get_timing(entry))
    if not isinstance(entry, dict):
        raise ValueError(f"timing entry must be a name or an object, "
                         f"got {entry!r}")
    spec = dict(entry)
    base = spec.pop("base", "default")
    params = _override(get_timing(base), spec, "timing")
    return AxisEntry(_override_label(base, spec), params)


def _parse_policy(entry: Union[str, dict]) -> AxisEntry:
    if isinstance(entry, str):
        return AxisEntry(entry, CellPolicy(victim_policy=VictimPolicy(entry)))
    if not isinstance(entry, dict):
        raise ValueError(f"policy entry must be a victim-policy name or an "
                         f"object, got {entry!r}")
    spec = dict(entry)
    victim = VictimPolicy(spec.pop("victim_policy", "rac-min"))
    policy = _override(CellPolicy(victim_policy=victim), spec, "policy")
    label = victim.value + ("" if policy.aggressive_reclamation
                            else "[no-reclaim]")
    return AxisEntry(label, policy)


@dataclass
class ParsedSweep:
    """A validated spec file: labelled axes plus the engine grid."""

    name: str
    workloads: List[str]
    machines: List[AxisEntry]
    memory: List[AxisEntry]
    timing: List[AxisEntry]
    policies: List[AxisEntry]
    warm: bool = True
    check: bool = False

    def labelled_cells(self) -> List[Tuple[Tuple[str, str, str, str, str],
                                           Cell]]:
        """Per-cell ((workload, machine, timing, memory, policy) labels,
        cell) pairs, produced by ONE loop nest so a label can never drift
        from the cell it describes (the render path runs these cells
        directly rather than relying on the engine's enumeration order)."""
        return [((w, m.label, t.label, mem.label, p.label),
                 Cell(workload=w, config=m.value, params=t.value,
                      memsys=mem.value, policy=p.value,
                      warm=self.warm, check=self.check))
                for w in self.workloads
                for m in self.machines
                for t in self.timing
                for mem in self.memory
                for p in self.policies]

    def __len__(self) -> int:
        return (len(self.workloads) * len(self.machines) * len(self.timing)
                * len(self.memory) * len(self.policies))


def parse_sweep(data: Union[dict, str, Path]) -> ParsedSweep:
    """Parse and validate a sweep spec (a dict, or a path to a JSON file).

    Every preset name, override field and workload name resolves here, so
    a bad spec fails before any cell simulates.
    """
    name = "sweep"
    if not isinstance(data, dict):
        path = Path(data)
        name = path.stem
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise ValueError(f"cannot read sweep spec {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("a sweep spec must be a JSON object")

    spec = dict(data)
    name = spec.pop("name", name)
    workloads = spec.pop("workloads", None)
    machines = spec.pop("machines", None)
    memory = spec.pop("memory", ["table2"])
    timing = spec.pop("timing", ["default"])
    policies = spec.pop("policies", [{}])
    warm = spec.pop("warm", True)
    check = spec.pop("check", False)
    if spec:
        raise ValueError(f"unknown sweep-spec keys {sorted(spec)}")
    # A bare string would iterate per character below and report a baffling
    # "unknown workload 'a'" — demand actual lists up front.
    if not isinstance(workloads, list) or not workloads \
            or not all(isinstance(w, str) for w in workloads):
        raise ValueError(
            "a sweep spec needs a non-empty 'workloads' list of names")
    if not isinstance(machines, list) or not machines:
        raise ValueError("a sweep spec needs a non-empty 'machines' list")
    for axis_name, axis in (("memory", memory), ("timing", timing),
                            ("policies", policies)):
        if not isinstance(axis, list) or not axis:
            raise ValueError(
                f"the {axis_name!r} axis must be a non-empty list")

    known = set(registered_names())
    unknown = [w for w in workloads if w not in known]
    if unknown:
        raise ValueError(
            f"unknown workload {unknown[0]!r}; known: {sorted(known)}")

    try:
        parsed = ParsedSweep(
            name=str(name),
            workloads=list(workloads),
            machines=[_parse_machine(e) for e in machines],
            memory=[_parse_memory(e) for e in memory],
            timing=[_parse_timing(e) for e in timing],
            policies=[_parse_policy(e) for e in policies],
            warm=bool(warm), check=bool(check))
    except KeyError as exc:
        # str() on a KeyError is the repr of its argument (extra quotes);
        # the argument already is the human-readable message.
        raise ValueError(exc.args[0]) from exc
    return parsed


def render_sweep(parsed: ParsedSweep,
                 results: Sequence[CellResult]) -> str:
    """The grid as one fixed-width table, in :meth:`labelled_cells` order."""
    return _render(parsed, [label for label, _ in parsed.labelled_cells()],
                   results)


def render_rows(parsed: ParsedSweep,
                labels: Sequence[Tuple[str, str, str, str, str]],
                results: Sequence[CellResult]) -> str:
    """The result table alone (no sweep header) for the grid's
    ``(labels, results)`` pairs."""
    if len(labels) != len(results):
        raise ValueError(
            f"expected {len(labels)} results for this spec, "
            f"got {len(results)}")
    show_timing = len(parsed.timing) > 1
    show_memory = len(parsed.memory) > 1
    show_policy = len(parsed.policies) > 1
    headers = ["workload", "machine"]
    headers += ["timing"] if show_timing else []
    headers += ["memory"] if show_memory else []
    headers += ["policy"] if show_policy else []
    headers += ["cycles", "mem insts", "swaps", "energy (nJ)"]
    if parsed.check:
        headers.append("correct")

    rows: List[List[object]] = []
    for (workload, machine, timing, memory, policy), result in zip(
            labels, results):
        row: List[object] = [workload, machine]
        row += [timing] if show_timing else []
        row += [memory] if show_memory else []
        row += [policy] if show_policy else []
        row += [result.stats.cycles, result.stats.memory_insts,
                result.stats.swap_insts, f"{result.energy.total:.0f}"]
        if parsed.check:
            row.append("yes" if result.correct else "NO")
        rows.append(row)

    return render_table(headers, rows)


def _render(parsed: ParsedSweep,
            labels: Sequence[Tuple[str, str, str, str, str]],
            results: Sequence[CellResult]) -> str:
    header = (f"=== sweep: {parsed.name} === "
              f"({len(parsed.workloads)} workloads x "
              f"{len(parsed.machines)} machines x "
              f"{len(parsed.timing)} timing x "
              f"{len(parsed.memory)} memory x "
              f"{len(parsed.policies)} policies = {len(parsed)} cells)")
    return header + "\n" + render_rows(parsed, labels, results)


def run_sweep(spec: Union[str, Path, dict, ParsedSweep],
              executor: Optional[CellExecutor] = None) -> str:
    """Parse (unless given a :class:`ParsedSweep`), execute and render a
    sweep spec — the single body behind both the CLI and library use."""
    parsed = spec if isinstance(spec, ParsedSweep) else parse_sweep(spec)
    pairs = parsed.labelled_cells()
    executor = executor or CellExecutor()
    results = executor.run([cell for _, cell in pairs], label=parsed.name)
    return _render(parsed, [label for label, _ in pairs], results)

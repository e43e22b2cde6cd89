"""RiVEC benchmark suite reimplementation — an open, pluggable registry.

The six Table-IV applications are rebuilt in the kernel DSL with the
register usage, live pressure, instruction mix and application vector length
the paper reports for each; four extended RiVEC-style kernels
(:data:`EXTENDED_WORKLOAD_NAMES`) grow the suite to ten.  Problem sizes are
scaled to simulator scale; figures report shapes, not absolute gem5 counts.

New kernels join the suite with the :func:`register_workload` decorator —
see the README's "Adding a workload" section.
"""

from repro.workloads.base import CompiledWorkload, Workload
from repro.workloads.registry import (
    ALL_WORKLOAD_NAMES,
    EXTENDED_WORKLOAD_NAMES,
    WORKLOAD_NAMES,
    all_workloads,
    get_workload,
    register_workload,
    registered_names,
    select_workloads,
)

# Importing the kernel modules registers the builtin suite.
from repro.workloads import axpy  # noqa: F401  (registration side effect)
from repro.workloads import blackscholes  # noqa: F401
from repro.workloads import jacobi2d  # noqa: F401
from repro.workloads import lavamd  # noqa: F401
from repro.workloads import particlefilter  # noqa: F401
from repro.workloads import pathfinder  # noqa: F401
from repro.workloads import somier  # noqa: F401
from repro.workloads import spmv  # noqa: F401
from repro.workloads import streamcluster  # noqa: F401
from repro.workloads import swaptions  # noqa: F401

__all__ = [
    "Workload",
    "CompiledWorkload",
    "all_workloads",
    "get_workload",
    "register_workload",
    "registered_names",
    "select_workloads",
    "WORKLOAD_NAMES",
    "EXTENDED_WORKLOAD_NAMES",
    "ALL_WORKLOAD_NAMES",
]

"""The hot-path class registry: structures required to declare ``__slots__``.

These classes are instantiated or touched per micro-op (or per physical
register) inside the simulation inner loop; an accidental ``__dict__``
costs both memory and attribute-lookup time at exactly the wrong place.
The registry keys on class *names* so the rule also applies to test
fixtures standing in for core code.

A class that deliberately keeps ``__dict__`` opts out with
``# lint: slots-exempt(<why>)`` on its ``class`` (or decorator) line; no
registry class in ``repro`` needs one today.
"""

from __future__ import annotations

#: Class names that must define ``__slots__`` (directly, or via
#: ``@dataclass(slots=True)``).  "ROB"/"RAT"/"RAC" from the issue tracker
#: shorthand resolve to the actual class names used in ``repro.core``.
HOT_PATH_CLASSES = frozenset({
    "MicroOp",          # core.uop — one per instruction per strip
    "ReorderBuffer",    # core.rob ("ROB")
    "RegisterAccessCounters",  # core.rac ("RAC")
    "RenameTable",      # core.rat ("RAT")
    "VRFMapping",       # core.vrf_mapping
    "Instruction",      # isa.instructions — one per compiled instruction
    "MemOperand",       # isa.operands — one per memory instruction
    "Cache",            # memory.cache — the L2 behind every vector access
    "MemorySystem",     # memory.hierarchy
    "VectorMemoryUnit",  # vpu.vmu
})

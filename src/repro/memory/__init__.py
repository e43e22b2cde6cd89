"""Memory-hierarchy substrate (Table II's memory system).

The paper's platform: 32 KB L1I and L1D (4-cycle latency), a 1 MB unified L2
(12-cycle latency), 512-bit cache lines throughout, and 2 GB DDR3 behind the
L2.  The Vector Memory Unit bypasses the L1 and sits directly on the L2 bus
with a 512-bit interface (8 × 64-bit elements per beat).

This package models what the VMU touches: a set-associative write-back L2
with LRU replacement, a flat-latency DRAM, and the composed
:class:`MemorySystem` the simulator and the energy model share (the energy
model consumes the access counters).
"""

"""VPU execution model: 8 lanes, decoupled queues, chaining, the VMU.

The paper's base platform is a decoupled vector architecture (Espasa &
Valero) with eight lanes, one pipelined arithmetic unit per lane, a Vector
Memory Unit on the L2 bus with a 512-bit interface, and 32-entry arithmetic
and memory queues.  :class:`repro.vpu.pipeline.VectorPipeline` composes the
:mod:`repro.core` structures into that machine and advances it cycle by
cycle.
"""

"""The vectorising-compiler model.

The paper compiles each RiVEC application four times (LMUL = 1, 2, 4, 8);
higher LMUL halves/quarters/eighths the architectural register count, and the
compiler inserts MVL-wide spill code when live pressure exceeds the supply.
This package reproduces that tool-chain stage:

* :mod:`repro.compiler.liveness` — live-pressure measurement over
  straight-line (unrolled) vector traces,
* :mod:`repro.compiler.allocator` — a furthest-next-use (Belady / MIN)
  register allocator that inserts ``Spill-Load`` / ``Spill-Store``
  instructions tagged for Figure 3's memory-instruction breakdown,
* :mod:`repro.compiler.trace` — strip-mine unrolling of kernel bodies into
  SSA traces of light operand tuples with per-iteration vector lengths and
  memory rebasing (the allocator builds each final instruction once),
* :mod:`repro.compiler.signature` — the (mvl, n_logical) compile signature
  that fully determines a compiled program,
* :mod:`repro.compiler.store` — a content-addressed store of compiled
  programs.  No command reads or writes it: each pair job compiles its
  program where it simulates.  It stays while ``perfbench/ledger.py``
  hooks it by name.

AVA and NATIVE configurations always execute the LMUL=1 binary (32
architectural registers); Register Grouping configurations execute binaries
allocated with 32/LMUL registers.
"""

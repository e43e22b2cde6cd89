"""AVA core structures — the paper's primary contribution (§III).

Everything Figure 1 highlights lives here:

* :mod:`repro.core.config` — machine configurations: NATIVE X1–X8, AVA
  X1–X8 and RG-LMUL1–8 (Tables I–III),
* :mod:`repro.core.rat` — first-level renaming (RAT + FRL onto Virtual
  Vector Registers),
* :mod:`repro.core.rac` — the 3-bit Register Access Counters,
* :mod:`repro.core.vrf_mapping` — second-level mapping (PRMT, VRLT, PFRL),
* :mod:`repro.core.vrf` — the two-level register file (P-VRF + M-VRF) with
  optional functional value transport,
* :mod:`repro.core.swap` — the Swap Logic's victim selection,
* :mod:`repro.core.rob` — the reorder buffer,
* :mod:`repro.core.uop` — the in-flight micro-op record the pipeline stages
  annotate.

§III.D's commit-time recovery checkpoint is not modelled: no simulated
program squashes, so nothing could read it.

The cycle-by-cycle stage interplay (pre-issue swap generation, dual in-order
queues, chaining) is composed in :mod:`repro.vpu.pipeline`.
"""

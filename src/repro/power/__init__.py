"""Area, energy and physical-design models (the paper's McPAT + Cadence).

Three layers:

* :mod:`repro.power.technology` — the 22nm constants, calibrated once
  against the paper's published anchors (Fig. 4 component areas, Table V
  post-PnR rows) and frozen;
* :mod:`repro.power.sram` / :mod:`repro.power.mcpat` — CACTI-lite SRAM
  geometry plus component assembly: per-configuration area reports and
  per-run energy reports consuming :class:`repro.sim.stats.SimStats`;
* :mod:`repro.power.physical` / :mod:`repro.power.floorplan` — the
  synthesis/place-and-route surrogate behind Table V and Figure 5.
"""

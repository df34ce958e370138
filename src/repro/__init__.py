"""repro — reproduction of "Scalable Epidemiological Workflows to Support
COVID-19 Planning and Response" (Machi et al., IPDPS 2021).

Subpackages:

- :mod:`repro.synthpop` — synthetic populations and contact networks.
- :mod:`repro.epihiper` — the EpiHiper agent-based network simulator.
- :mod:`repro.metapop` — county-level metapopulation SEIR model.
- :mod:`repro.calibration` — GP-emulator Bayesian calibration (GPMSA-style).
- :mod:`repro.cluster` — dual-cluster HPC substrate simulation.
- :mod:`repro.scheduling` — WMP / DB-WMP mapping heuristics (NFDT/FFDT-DC).
- :mod:`repro.surveillance` — synthetic county-level ground-truth data.
- :mod:`repro.analytics` — aggregation, ensembles, forecast targets.
- :mod:`repro.economics` — medical-cost model (case study 1).
- :mod:`repro.core` — the end-to-end epidemiological workflows.
- :mod:`repro.store` — content-addressed result store, ledgers, memoization.
- :mod:`repro.obs` — metrics registry, spans and trace reports.
- :mod:`repro.resilience` — fault injection, retry policy, supervision.
- :mod:`repro.service` — the HTTP scenario service and its client.
- :mod:`repro.surrogate` — emulated answers for repeat scenario families.
- :mod:`repro.checkpoint` — mid-run snapshots and bit-identical resume.
- :mod:`repro.plane` — the shared-memory plane for region assets.
- :mod:`repro.cli` — the ``repro`` command line.
"""

__version__ = "1.0.0"

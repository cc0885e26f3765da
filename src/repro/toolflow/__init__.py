"""Design-space exploration toolflow (paper Figure 3, Sections VIII-X).

This layer glues applications, compiler and simulator into the experiments the
paper reports:

* :mod:`~repro.toolflow.config` -- :class:`ArchitectureConfig`, a declarative
  description of one candidate architecture.
* :mod:`~repro.toolflow.runner` -- :class:`ExperimentRecord`, the one
  record of an evaluated design point, and the compile-and-simulate drivers,
  including the gate-implementation fan-out that reuses one compilation
  across AM1/AM2/PM/FM.
* :mod:`~repro.toolflow.sweep` -- the figures' sweep axes (capacities,
  topologies and microarchitecture combinations) as :mod:`repro.dse` design
  spaces.
* :mod:`~repro.toolflow.parallel` -- the sweep executor: compiled-program
  memoization (:class:`ProgramCache`) and one task's compile and batched
  simulation (:func:`execute_task`), shared by every sweep and figure
  driver and by the work ledger's workers.
* :mod:`~repro.toolflow.figures` -- harnesses that regenerate the data series
  of Figures 6, 7 and 8, each evaluating its space on the DSE runner through
  an experiment store (resumable when persistent).
* :mod:`~repro.toolflow.tables` -- harnesses for Tables I and II.

The names below resolve on first access (:mod:`repro._lazy`):
``repro.toolflow.config`` is imported by processes that never compile.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.toolflow.config": ("ArchitectureConfig",),
    "repro.toolflow.parallel": ("ProgramCache", "SweepTask", "execute_task"),
    "repro.toolflow.runner": ("ExperimentRecord", "run_experiment",
                              "run_gate_variants"),
    "repro.toolflow.figures": ("figure6", "figure7", "figure8"),
    "repro.toolflow.tables": ("table2",),
})

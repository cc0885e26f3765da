"""Static analysis: program verifier, race detector, determinism linter.

Three checkers with one diagnostic vocabulary (see
``docs/static-analysis.md`` for the catalogue):

* :func:`verify_program` -- prove a compiled program legal against the
  paper's trap/shuttle/gate rules without simulating (``QV*`` checks).
* :func:`detect_races` -- replay resource claims symbolically and flag
  double-booked traps/segments/junctions (``RC*`` checks).
* :func:`lint_paths` -- ``ast``-based determinism rules over the codebase
  (``DT*`` checks).

``repro check`` is the CLI surface; ``--check`` on ``run``/``sweep``/
``dse run`` arms :func:`verify_or_raise` on every compile at runtime.  The
names below resolve on first access (:mod:`repro._lazy`), so a compile,
whose ``program.validate()`` runs :func:`quick_validate`, loads the
verifier alone and not the linter, the race detector or the runtime hook.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analyze.diagnostics": ("CHECKS", "Diagnostic", "Report",
                                  "SEVERITIES", "check_severity", "diag",
                                  "merge_reports"),
    "repro.analyze.lint": ("lint_paths", "lint_source"),
    "repro.analyze.races": ("detect_races",),
    "repro.analyze.runtime": ("verify_or_raise",),
    "repro.analyze.verifier": ("quick_validate", "verify_program"),
    "repro.checks": ("StaticAnalysisError", "checks_enabled", "enable_checks",
                     "reset_checks"),
})

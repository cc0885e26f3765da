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
``dse run`` arms :func:`verify_or_raise` on every compile at runtime.
"""

from repro.analyze.diagnostics import (
    CHECKS,
    Diagnostic,
    Report,
    SEVERITIES,
    check_severity,
    diag,
    merge_reports,
)
from repro.analyze.lint import lint_paths, lint_source
from repro.analyze.races import detect_races
from repro.analyze.runtime import verify_or_raise
from repro.analyze.verifier import quick_validate, verify_program
from repro.checks import (
    StaticAnalysisError,
    checks_enabled,
    enable_checks,
    reset_checks,
)

__all__ = [
    "CHECKS",
    "Diagnostic",
    "Report",
    "SEVERITIES",
    "StaticAnalysisError",
    "check_severity",
    "checks_enabled",
    "detect_races",
    "diag",
    "enable_checks",
    "lint_paths",
    "lint_source",
    "merge_reports",
    "quick_validate",
    "reset_checks",
    "verify_or_raise",
    "verify_program",
]

"""Runtime hooks: opt-in verification of every compiled program.

``--check`` on ``run``/``sweep``/``dse run`` flips a process-wide flag
(:mod:`repro.checks`, mirrored into the ``REPRO_CHECK`` environment variable
so ledger workers inherit it); while it is set, the compile pipeline
and the sweep executor import this module and pass every program through
:func:`verify_or_raise` -- the full static verifier plus the race detector
-- and abort with :class:`StaticAnalysisError` on the first error-severity
finding.

Verification is memoized per program instance (an attribute stamped on the
program, like the cached lowering of :func:`repro.sim.lower.lower`, which
the verifier, the race detector and the simulator share), so a cached
program re-simulated across a 96-point sweep is verified once.  The
off-path cost when the flag is unset is one truthiness test; a tier-1
bound (``tests/test_analyze.py``) holds it under 1% of the 96-point
sweep, as for the disabled-span fast path.

Emits ``check.verify`` / ``check.races`` spans and ``check.programs`` /
``check.findings`` / ``check.errors`` counters on the PR 7 registry.
"""

from __future__ import annotations

from repro.analyze.diagnostics import merge_reports
from repro.analyze.races import detect_races
from repro.analyze.verifier import verify_program
from repro.checks import StaticAnalysisError
from repro.isa.program import QCCDProgram
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.trace import span


def verify_or_raise(program: QCCDProgram, device=None, *,
                    races: bool = True) -> None:
    """Verify ``program`` (once per instance), raising on error findings."""

    if getattr(program, "_analyze_ok", None) is program.operations:
        return
    registry = _metrics_registry()
    registry.counter("check.programs").inc()
    with span("check.verify", ops=len(program.operations)):
        report = verify_program(program, device)
    if races:
        with span("check.races"):
            report = merge_reports([report, detect_races(program)])
    registry.counter("check.findings").inc(len(report))
    errors = report.errors
    if errors:
        registry.counter("check.errors").inc(len(errors))
        raise StaticAnalysisError(report)
    program._analyze_ok = program.operations

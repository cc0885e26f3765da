"""Diagnostics: the finding type shared by every static-analysis check.

A :class:`Diagnostic` is one finding -- a check id from the catalogue below,
a severity, a human message, a location (an op index for program checks, a
``path:line`` for source checks) and a fix hint.  A :class:`Report` is an
ordered collection of findings with the aggregation the CLI and CI gate
need: error/warning counts, formatting, a JSON view and ``raise_if_errors``.

The check catalogue (ids, severities, what each rule means and how to
suppress one) is documented in ``docs/static-analysis.md``; every entry
there mirrors a row of :data:`CHECKS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

#: Severity levels, most severe first.  ``error`` fails `repro check` and the
#: CI static-analysis job; ``warning`` is reported but does not fail;
#: ``info`` notes reduced analysis scope (e.g. no device for connectivity).
SEVERITIES = ("error", "warning", "info")

#: The check catalogue: id -> (title, default severity, one-line rule).
#: QV* = program verifier, RC* = schedule race detector, DT* = determinism
#: linter.  ``docs/static-analysis.md`` is the narrative version of this
#: table; keep the two in sync.
CHECKS: Dict[str, Tuple[str, str, str]] = {
    "QV000": ("verifier-scope", "info",
              "analysis ran with reduced scope (e.g. no device topology, so "
              "capacity/connectivity checks were skipped)"),
    "QV001": ("trap-capacity", "error",
              "a trap's occupancy exceeds its capacity (one transient "
              "overfill ion is legal only between a pass-through merge and "
              "the relieving split)"),
    "QV002": ("occupancy-conservation", "error",
              "an ion is in two traps at once, shuttled while not in "
              "transit, split from a trap it is not in, or left in transit "
              "at program end"),
    "QV003": ("gate-colocation", "error",
              "a gate/measure/swap acts on ions that are not all in the "
              "declared trap's chain"),
    "QV004": ("annotation-mismatch", "error",
              "a compile-time annotation (chain_length, chain_size, "
              "ion_distance, split side, swap adjacency) disagrees with the "
              "replayed chain state"),
    "QV005": ("qubit-liveness", "error",
              "a program qubit's tracked ion binding disagrees with an "
              "operation's qubit operands, or an op references an unplaced "
              "ion"),
    "QV006": ("dependency-coverage", "error",
              "a dependency is out of range, or two "
              "ops touching the same ion have no happens-before path "
              "through dependencies and shared resources (the sim/batch "
              "lowering would misorder them)"),
    "QV007": ("route-connectivity", "error",
              "a route references unknown hardware, a move's segment does "
              "not join its endpoints, a junction degree disagrees with the "
              "topology, or a merge/split side disagrees with the port "
              "geometry"),
    "RC001": ("trap-claim-race", "error",
              "two operations overlap in time on the same trap under the "
              "dependency-only schedule (a serializing dependency is "
              "missing)"),
    "RC002": ("resource-overlap", "error",
              "two operations overlap in time on the same trap/segment/"
              "junction under the merged dependency+resource schedule (the "
              "sim/batch lowering would double-book the resource)"),
    "RC003": ("dependency-order", "error",
              "an operation starts before a declared dependency finishes "
              "under the analysed schedule"),
    "DT001": ("unseeded-random", "error",
              "module-level random.* calls or an unseeded random.Random() "
              "make runs irreproducible; use random.Random(seed)"),
    "DT002": ("wall-clock", "error",
              "raw time.time()/datetime.now() outside LeaseClock and "
              "repro.obs skews lease arithmetic and breaks fake-clock "
              "tests; route through LeaseClock"),
    "DT003": ("set-iteration", "error",
              "iterating a bare set in a deterministic path makes ordering "
              "hash-dependent; iterate a sorted() view or the original "
              "ordered source"),
    "DT004": ("schema-version", "error",
              "a public io/serialization payload builder does not stamp "
              "schema_version; versionless artefacts cannot be migrated"),
    "DT005": ("span-naming", "warning",
              "a span name does not follow the docs/observability.md "
              "convention (dotted lowercase, known category first)"),
}


def check_severity(check_id: str) -> str:
    """Default severity for ``check_id`` (``error`` for unknown ids)."""

    entry = CHECKS.get(check_id)
    return entry[1] if entry else "error"


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding."""

    check_id: str
    severity: str
    message: str
    location: str = ""
    hint: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def format(self) -> str:
        where = f"{self.location}: " if self.location else ""
        text = f"{self.check_id} [{self.severity}] {where}{self.message}"
        if self.hint:
            text += f"\n        hint: {self.hint}"
        return text

    def to_dict(self) -> Dict[str, str]:
        return {"check_id": self.check_id, "severity": self.severity,
                "message": self.message, "location": self.location,
                "hint": self.hint}


def diag(check_id: str, message: str, *, location: str = "", hint: str = "",
         severity: str = "") -> Diagnostic:
    """A :class:`Diagnostic` with the catalogue's default severity."""

    return Diagnostic(check_id=check_id,
                      severity=severity or check_severity(check_id),
                      message=message, location=location, hint=hint)


@dataclass
class Report:
    """An ordered collection of findings from one analysis pass."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, other: "Report") -> "Report":
        self.diagnostics.extend(other.diagnostics)
        return self

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def count(self, severity: str) -> int:
        return sum(1 for d in self.diagnostics if d.severity == severity)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def ok(self) -> bool:
        """No error-severity findings (warnings/infos do not fail a check)."""

        return not self.errors

    def by_check(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for d in self.diagnostics:
            counts[d.check_id] = counts.get(d.check_id, 0) + 1
        return counts

    def summary(self) -> str:
        return (f"{self.count('error')} error(s), "
                f"{self.count('warning')} warning(s), "
                f"{self.count('info')} info")

    def format(self, *, limit: int = 0) -> str:
        """Human-readable listing, errors first; ``limit=0`` shows all."""

        ordering = {severity: rank for rank, severity in enumerate(SEVERITIES)}
        ranked = sorted(range(len(self.diagnostics)),
                        key=lambda i: (ordering[self.diagnostics[i].severity], i))
        shown = ranked[:limit] if limit else ranked
        lines = [self.diagnostics[i].format() for i in shown]
        if limit and len(ranked) > limit:
            lines.append(f"... and {len(ranked) - limit} more")
        lines.append(self.summary())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "counts": {severity: self.count(severity)
                       for severity in SEVERITIES},
            "by_check": self.by_check(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def raise_if_errors(self, exc_type=ValueError) -> None:
        """Raise ``exc_type`` carrying the formatted errors, if any."""

        errors = self.errors
        if errors:
            raise exc_type("; ".join(d.message for d in errors))


def merge_reports(reports: Iterable[Report]) -> Report:
    """Concatenate several reports into one."""

    merged = Report()
    for report in reports:
        merged.extend(report)
    return merged

"""Record-level frontier views: n-D frontiers, clouds and hypervolume.

The archive layer works on (key, vector) pairs; this module applies it to
the record objects the stores and sweep drivers produce, giving the CLI and
reports their multi-objective answers:

* :func:`record_frontier` -- the non-dominated records of a collection
  under any named objective set (under ``("runtime", "fidelity")``, the
  fidelity-vs-runtime frontier fastest first: ``dse pareto``'s default).
* :func:`cloud_rows` -- *every* record as a flat report row with a
  ``dominated`` column and a stable n-D ordering, so downstream tooling can
  plot the full cloud and highlight the frontier without re-deriving
  dominance.
* :func:`records_hypervolume` -- the normalised hypervolume indicator of a
  record collection (what ``dse pareto --hypervolume`` prints).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.dse.moo.archive import ParetoArchive
from repro.dse.moo.hypervolume import normalised_hypervolume
from repro.dse.moo.objectives import objective_vector, vector_bounds


def _indexed_vectors(records: List, objectives: Sequence[str]):
    return [(index, objective_vector(record, objectives))
            for index, record in enumerate(records)]


def record_frontier(records, objectives: Sequence[str]) -> List:
    """Records not dominated under ``objectives``, best-first.

    Ordering is the stable n-D order: objective vectors descending
    lexicographically (so the best first-objective value leads), original
    position breaking exact ties -- the same record list always yields the
    same frontier in the same order.
    """

    records = list(records)
    archive = ParetoArchive(len(tuple(objectives)))
    vectors = _indexed_vectors(records, objectives)
    archive.update(vectors)
    kept = set(archive.keys())
    ordered = sorted((vector, index) for index, vector in vectors
                     if index in kept)
    return [records[index] for vector, index in reversed(ordered)]


def cloud_rows(records, objectives: Sequence[str]) -> List[Dict[str, object]]:
    """Every record as a report row with a ``dominated`` column.

    Rows are grouped by application (sorted) and ordered within each
    application by objective vector, best first (descending lexicographic,
    original position on exact ties) -- stable for any input order of the
    same records, so exported clouds diff cleanly.  Each row carries its
    canonical objective values (``objective_<name>`` columns, higher is
    better) next to the raw metrics.
    """

    records = list(records)
    by_app: Dict[str, List[int]] = {}
    for index, record in enumerate(records):
        by_app.setdefault(record.application, []).append(index)
    rows: List[Dict[str, object]] = []
    for app in sorted(by_app):
        indices = by_app[app]
        app_records = [records[index] for index in indices]
        archive = ParetoArchive(len(tuple(objectives)))
        vectors = _indexed_vectors(app_records, objectives)
        archive.update(vectors)
        kept = set(archive.keys())
        # Vector descending, original position ascending on exact ties --
        # so a frontier row always precedes a tied dominated duplicate.
        ordered = sorted(((vector, position) for position, vector in vectors),
                         key=lambda item: ([-value for value in item[0]],
                                           item[1]))
        for vector, position in ordered:
            row = app_records[position].as_row()
            for name, value in zip(objectives, vector):
                row[f"objective_{name}"] = value
            row["dominated"] = position not in kept
            rows.append(row)
    return rows


def records_hypervolume(records, objectives: Sequence[str]) -> float:
    """Normalised hypervolume of the records' frontier (0 when empty).

    Bounds come from the *whole* collection (frontier and dominated points
    alike), so the indicator is comparable across strategies exploring the
    same space: more frontier coverage means strictly more hypervolume.
    """

    records = list(records)
    if not records:
        return 0.0
    vectors = [objective_vector(record, objectives) for record in records]
    archive = ParetoArchive(len(tuple(objectives)))
    archive.update(list(enumerate(vectors)))
    return normalised_hypervolume(archive.vectors(), vector_bounds(vectors))

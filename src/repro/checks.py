"""The ``--check`` switch, readable without loading the analyzer.

``--check`` on ``run``/``sweep``/``dse run`` turns on verification of every
compiled program (:func:`repro.analyze.runtime.verify_or_raise`).  The flag
lives here, apart from :mod:`repro.analyze`, so that the compiler and the
sweep executor test it with one call and import the verifier, the race
detector and their dependencies only when it is on.  It is mirrored into the
``REPRO_CHECK`` environment variable so process-pool and dispatched workers
inherit it.
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment variable carrying the flag across process boundaries.
ENV_FLAG = "REPRO_CHECK"

_enabled: Optional[bool] = None


class StaticAnalysisError(ValueError):
    """A compiled program failed static verification under ``--check``.

    ``report`` is the :class:`repro.analyze.diagnostics.Report` of findings.
    """

    def __init__(self, report) -> None:
        super().__init__(report.format())
        self.report = report


def checks_enabled() -> bool:
    """Whether ``--check`` verification is active in this process."""

    if _enabled is not None:
        return _enabled
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


def enable_checks(enabled: bool = True) -> None:
    """Turn runtime verification on (or off) for this process and children.

    The environment mirror is what carries the flag into pool workers --
    they are spawned after the CLI parses ``--check`` and read the variable
    when they first test the flag.
    """

    global _enabled
    _enabled = enabled
    if enabled:
        os.environ[ENV_FLAG] = "1"
    else:
        os.environ.pop(ENV_FLAG, None)


def reset_checks() -> None:
    """Forget any explicit setting; fall back to the environment (tests)."""

    global _enabled
    _enabled = None
